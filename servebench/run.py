"""Served-path benchmark of the partition server.

Usage (from the repository root)::

    python3 servebench/run.py --workload hit_mix --seed 1 --seconds 15 --trace 0

Each run replays a request sequence pre-generated from ``--seed`` and
sized by ``--seconds`` (see ``workloads.py``) against fresh
``repro serve --jobs 1`` subprocesses, checks every answer against an
in-process computation after the timed phase, and prints one line per
metric followed by a final JSON line.  ``--trace 0`` reports the
end-to-end metrics of the served run; ``--trace 1`` repeats the served
run and adds an in-process traced replay of it, reporting the
per-layer metrics.  The exit code is 0 only when every answer was
right.  See ``README.md`` in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".servebench"

#: Candidate tail percentiles, highest first; a run reports the highest
#: one that leaves at least MIN_BEYOND samples above it.  Nothing above
#: p95 stays steady from run to run on the reference host (hit_mix p99
#: spread 21% between runs where p95 spread 6%), and neither does a
#: percentile with only ten-odd samples above it (cold_ladder p95, 14
#: above, spread 11-24% over three sets of ten runs).
TAIL_QUANTILES = (0.95, 0.9, 0.75, 0.5)
MIN_BEYOND = 15

#: The source every timed answer of a workload must come from.
EXPECTED_SOURCE = {
    "hit_mix": "memory",
    "cold_ladder": "computed",
    "repartition_storm": "computed",
}

#: How the per-layer values that are not span times are obtained.
NOTES = {
    "pipeline.mesh_builds": "server counter stage_cache_total",
    "pipeline.graph_builds": "server counter stage_cache_total",
    "engine.compute_ms": "served responses' elapsed_s",
    "service.cache_hit_ratio": "server counters by source",
    "server.residual_ms": "computed: client latency minus traced layers",
    "server.peak_rss_mib": "VmHWM",
    "worker.peak_rss_mib": "VmHWM",
    "trace.overhead_pct": "traced vs untraced replay",
}

LAYERS = (
    "client.encode", "server.decode", "service.key", "service.cache_get",
    "service.cache_put", "pipeline.mesh", "pipeline.graph",
    "pipeline.partition", "pipeline.evaluate", "repartition.plan",
    "server.encode", "client.decode",
)


def host_probe_ms() -> float:
    """Time of a fixed single-thread task (host speed, never a correction)."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    return 1e3 * (perf_counter() - t0)


def tail_quantile(n: int) -> float:
    for q in TAIL_QUANTILES:
        if round((1.0 - q) * n, 6) >= MIN_BEYOND:
            return q
    return TAIL_QUANTILES[-1]


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def server_env() -> dict[str, str]:
    """Environment of every program process: the checkout's sources, and
    the compiled-kernel cache and temporary files kept inside the
    checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["XDG_CACHE_HOME"] = str(WORK / "cache")
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def check_answers(samples, calls, source: str | None = None) -> dict:
    """Compare each answer with its expected digest (after timing).

    ``source``, when given, is where every answer must come from.
    """
    from workloads import answer_digest

    out = {"ok": 0, "failed": 0, "wrong": 0, "bad_source": 0,
           "compute_ms": [], "response_bytes": [], "ok_latency_s": []}
    for s in samples:
        call = calls[s.index]
        out["response_bytes"].append(len(s.body))
        if s.status != 200:
            out["failed"] += 1
            continue
        data = json.loads(s.body)
        if answer_digest(call.route, data) != call.expect:
            out["wrong"] += 1
            out["failed"] += 1
            continue
        if source is not None and data.get("source") != source:
            out["bad_source"] += 1
        out["ok"] += 1
        out["ok_latency_s"].append(s.latency_s)
        computed = data.get("source") == "computed"
        out["compute_ms"].append(1e3 * data["elapsed_s"] if computed else 0.0)
    return out


def run_served(plan, env: dict[str, str]) -> list[dict]:
    """Serve the plan replica by replica, each on a fresh server."""
    from served import ServerProcess, counters, delta, drive

    calls = plan.calls()
    index = 0
    replicas = []
    for r, streams in enumerate(plan.replicas):
        indexed = []
        for stream in streams:
            indexed.append([(index + i, c) for i, c in enumerate(stream)])
            index += len(stream)
        log = WORK / f"server-{os.getpid()}-{r}.log"
        server = ServerProcess(env, ROOT, log)
        t0 = perf_counter()
        try:
            server.start()
            fill, _ = drive(server.port, [list(enumerate(plan.fill))] if plan.fill else [])
            setup_s = perf_counter() - t0
            before = counters(server.port)
            samples, wall = drive(server.port, indexed)
            after = counters(server.port)
            rss = server.peak_rss()
        finally:
            server.stop()
        replicas.append({
            "setup_s": setup_s,
            "wall_s": wall,
            "fill_ok": check_answers(fill, plan.fill)["ok"] == len(plan.fill),
            "counters": delta(after, before),
            "server_rss_mib": rss[0],
            "worker_rss_mib": rss[1],
            "served_order": [s.index for s in sorted(samples, key=lambda s: s.t1)],
            "latency_s": {s.index: s.latency_s for s in samples},
            "request_bytes": [s.request_bytes for s in samples],
            "check": check_answers(samples, calls, EXPECTED_SOURCE[plan.workload]),
        })
    return replicas


def sum_counters(reps: list[dict]) -> dict[str, float]:
    counts: dict[str, float] = {}
    for r in reps:
        for k, v in r["counters"].items():
            counts[k] = counts.get(k, 0.0) + v
    return counts


def summarize(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics plus the run's bookkeeping."""
    attempted = sum(len(r["latency_s"]) for r in reps)
    ok = sum(r["check"]["ok"] for r in reps)
    failed = sum(r["check"]["failed"] for r in reps)
    wrong = sum(r["check"]["wrong"] for r in reps)
    lat = [x for r in reps for x in r["check"]["ok_latency_s"]]
    q = tail_quantile(len(lat))
    wall = sum(r["wall_s"] for r in reps)
    counts = sum_counters(reps)
    hits = counts.get("source.memory", 0) + counts.get("source.disk", 0)
    problems = []
    if wrong:
        problems.append(f"{wrong} wrong answers")
    if not all(r["fill_ok"] for r in reps):
        problems.append("cache fill answered wrongly")
    bad_source = sum(r["check"]["bad_source"] for r in reps)
    if bad_source:
        problems.append(
            f"{bad_source} answers not from {EXPECTED_SOURCE[workload]!r}"
        )
    if workload == "hit_mix" and hits != ok:
        problems.append(f"server counted {hits:g} cache answers for {ok} requests")
    if workload == "cold_ladder" and (
        hits or counts.get("cache.memory_hits") or counts.get("cache.disk_hits")
    ):
        problems.append("cold_ladder got cache hits")
    metrics = {
        "latency_p50_ms": (1e3 * percentile(lat, 0.5) if lat else 0.0, "ms"),
        "latency_tail_ms": (1e3 * percentile(lat, q) if lat else 0.0, "ms"),
        "throughput_rps": (ok / wall, "1/s"),
        "peak_rss_mib": (
            max(r["server_rss_mib"] + r["worker_rss_mib"] for r in reps), "MiB"
        ),
        "setup_s": (statistics.median(r["setup_s"] for r in reps), "s"),
        "success_rate": (ok / attempted, "ratio"),
    }
    info = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "problems": problems,
        "tail_quantile": q,
        "latency_samples": len(lat),
        "samples_beyond_tail": round((1 - q) * len(lat), 1),
        "counters": counts,
        "setup_s_each": [r["setup_s"] for r in reps],
        "wall_s_each": [r["wall_s"] for r in reps],
        "latency_s": {i: x for r in reps for i, x in r["latency_s"].items()},
    }
    return metrics, info


def layer_metrics(plan, reps: list[dict], filled: list) -> tuple[dict, list]:
    """Per-layer metrics from the traced in-process replay."""
    from traced import replay

    calls = plan.calls()
    servers = [[(i, calls[i]) for i in r["served_order"]] for r in reps]
    tracer, untraced_wall, traced_wall = replay(filled, servers)

    n = sum(len(s) for s in servers)
    totals = {name: 0.0 for name in LAYERS}
    roots: dict[int, float] = {}
    for name, start, end, parent, request in tracer.spans:
        dur = end - start
        if name in totals:
            totals[name] += dur
        if parent == -1:
            roots[request] = roots.get(request, 0.0) + dur
    latency = {i: x for r in reps for i, x in r["latency_s"].items()}
    residual = [latency[i] - roots.get(i, 0.0) for i in latency]
    counts = sum_counters(reps)
    sources = {k: v for k, v in counts.items() if k.startswith("source.")}
    answered = sum(sources.values())
    hits = sources.get("source.memory", 0) + sources.get("source.disk", 0)
    compute = [x for r in reps for x in r["check"]["compute_ms"]]
    resp_bytes = [x for r in reps for x in r["check"]["response_bytes"]]
    req_bytes = [x for r in reps for x in r["request_bytes"]]

    def ms(name: str) -> float:
        return 1e3 * totals[name] / n

    metrics = {
        "pipeline.mesh_ms": (ms("pipeline.mesh"), "ms"),
        "pipeline.graph_ms": (ms("pipeline.graph"), "ms"),
        "pipeline.mesh_builds": (counts.get("stage_cache.mesh.miss", 0.0), "count"),
        "pipeline.graph_builds": (counts.get("stage_cache.graph.miss", 0.0), "count"),
        "pipeline.partition_ms": (ms("pipeline.partition"), "ms"),
        "pipeline.evaluate_ms": (ms("pipeline.evaluate"), "ms"),
        "engine.compute_ms": (statistics.fmean(compute) if compute else 0.0, "ms"),
        "repartition.plan_ms": (ms("repartition.plan"), "ms"),
        "server.decode_ms": (ms("server.decode"), "ms"),
        "service.key_ms": (ms("service.key"), "ms"),
        "service.cache_get_ms": (ms("service.cache_get"), "ms"),
        "service.cache_hit_ratio": (hits / answered if answered else 0.0, "ratio"),
        "server.encode_ms": (ms("server.encode"), "ms"),
        "client.encode_ms": (ms("client.encode"), "ms"),
        "client.decode_ms": (ms("client.decode"), "ms"),
        "client.request_bytes": (statistics.fmean(req_bytes), "bytes"),
        "client.response_bytes": (statistics.fmean(resp_bytes), "bytes"),
        "client.latency_mean_ms": (1e3 * statistics.fmean(latency.values()), "ms"),
        "server.residual_ms": (1e3 * statistics.fmean(residual), "ms"),
        "server.peak_rss_mib": (max(r["server_rss_mib"] for r in reps), "MiB"),
        "worker.peak_rss_mib": (max(r["worker_rss_mib"] for r in reps), "MiB"),
        "trace.overhead_pct": (
            100.0 * (traced_wall - untraced_wall) / untraced_wall, "%"
        ),
    }
    return metrics, tracer.records()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still stops its servers: finally blocks run on
    # SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "server").is_dir():
        print(f"servebench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    env = server_env()
    os.environ.update({k: env[k] for k in ("XDG_CACHE_HOME", "TMPDIR")})
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    # One CPU for the whole run: the client, the servers and their
    # workers inherit this mask.  A hop between two vCPUs of the
    # reference VM waits for an idle vCPU to wake, and that wait follows
    # the host's load: hit_mix flipped between ~110 and ~230 req/s
    # within one run.  On one CPU each hop is a context switch, and a
    # run is bound by the program's own work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    probe_start = host_probe_ms()
    plan = workloads.build(args.workload, args.seed, args.seconds)
    filled = []
    if args.trace:
        from traced import fill_responses

        filled = fill_responses(list(plan.fill))
    reps = run_served(plan, env)
    e2e, info = summarize(args.workload, reps)
    spans = []
    if args.trace:
        metrics, spans = layer_metrics(plan, reps, filled)
    else:
        metrics = e2e
    probe_end = host_probe_ms()
    if args.trace:
        metrics["host.probe_start_ms"] = (probe_start, "ms")
        metrics["host.probe_end_ms"] = (probe_end, "ms")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "host_probe_ms": [probe_start, probe_end], **info,
    }
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(report, indent=1))
    if spans:
        (WORK / "results" / f"{stem}-spans.json").write_text(json.dumps(spans))

    for name, (value, unit) in metrics.items():
        note = NOTES.get(name, "")
        print(f"{name:28s} {value:14.4f} {unit}{'  (' + note + ')' if note else ''}")
    print(f"latency_tail_ms is p{100 * info['tail_quantile']:g} of "
          f"{info['latency_samples']} samples ({info['samples_beyond_tail']:g} beyond)")
    print(f"error_rate {info['error_rate']:.6f} "
          f"({info['failed']} of {info['attempted']} failed)")
    print(f"host probe {probe_start:.1f} ms at start, {probe_end:.1f} ms at end")
    print("server counters " + json.dumps(info["counters"], sort_keys=True))
    for problem in info["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = not info["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
