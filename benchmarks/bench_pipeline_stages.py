#!/usr/bin/env python
"""Per-stage cost of a served SFC compute: mesh, graph, partition, evaluate.

A served ``sfc`` request runs the four pipeline stages of
:mod:`repro.partition.pipeline`.  The cut itself is O(chunk); the mesh
and graph exist only so ``evaluate`` can report LB, edgecut and TCV.
This bench times each stage from cold caches (best of 3;
the mesh/graph stage caches are cleared before every repeat) and
records the process's peak RSS, at K = 96, 24 576 and 393 216
(Ne = 4, 64, 256), plus K = 6.3 M (Ne = 1024) under ``--full``.
Every size runs in its own subprocess so ``ru_maxrss`` is attributable.

Writes ``benchmarks/results/pipeline_stages.{txt,json}``.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline_stages.py          # Ne 4, 64, 256
    PYTHONPATH=src python benchmarks/bench_pipeline_stages.py --full   # + Ne 1024
    PYTHONPATH=src python benchmarks/bench_pipeline_stages.py --ci     # Ne 4, 64
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

RESULTS_TXT = HERE / "results" / "pipeline_stages.txt"
RESULTS_JSON = HERE / "results" / "pipeline_stages.json"

DEFAULT_NES = (4, 64, 256)
FULL_NES = DEFAULT_NES + (1024,)
CI_NES = (4, 64)
STAGES = ("mesh", "graph", "partition", "evaluate")
METHOD = "sfc"
REPEATS = 3  # cold repeats per size; Ne 1024 runs once


def nparts_for(ne: int) -> int:
    """48 parts at Ne=4 (the perf-smoke size), 4096 from Ne=64 up."""
    return min(4096, 3 * ne * ne)


def _peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux, bytes on macOS.
    scale = 1024 if sys.platform != "darwin" else 1
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 2**20


def child(ne: int, nparts: int, repeats: int) -> dict:
    """Time the four stages at one size in this process."""
    from repro._native import LIB
    from repro.partition.pipeline import (
        clear_stage_caches,
        evaluate_stage,
        graph_stage,
        mesh_stage,
        partition_stage,
    )

    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeats):
        clear_stage_caches()
        t0 = perf_counter()
        mesh_stage(ne)
        t1 = perf_counter()
        graph = graph_stage(ne)
        t2 = perf_counter()
        part = partition_stage(METHOD, ne, nparts)
        t3 = perf_counter()
        quality = evaluate_stage(graph, part)
        t4 = perf_counter()
        for stage, dt in zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            best[stage] = min(best[stage], 1e3 * dt)
    return {
        "ne": ne,
        "k": 6 * ne * ne,
        "nparts": nparts,
        "repeats": repeats,
        "ckernels": LIB is not None,
        "ms": best,
        "total_ms": sum(best.values()),
        "peak_rss_mib": _peak_rss_mib(),
        "edgecut": quality.edgecut,
    }


def _spawn(ne: int, nparts: int, repeats: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(HERE.parent / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(ne), str(nparts), str(repeats)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child ne={ne} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def render(rows: list[dict], profile: str) -> str:
    kernels = "on" if rows and rows[0]["ckernels"] else "off"
    header = (
        f"{'ne':>5} {'K':>9} {'nparts':>6} "
        + " ".join(f"{s + '_ms':>12}" for s in STAGES)
        + f" {'total_ms':>10} {'peak_rss_mib':>12}"
    )
    lines = [
        f"Served {METHOD} compute per pipeline stage (cold mesh/graph "
        f"caches, best of {REPEATS}; profile {profile}, C kernels {kernels})",
        header,
        "-" * len(header),
    ]
    for r in rows:
        lines.append(
            f"{r['ne']:>5} {r['k']:>9} {r['nparts']:>6} "
            + " ".join(f"{r['ms'][s]:>12.2f}" for s in STAGES)
            + f" {r['total_ms']:>10.2f} {r['peak_rss_mib']:>12.1f}"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    profile = parser.add_mutually_exclusive_group()
    profile.add_argument("--ci", action="store_true", help="Ne 4 and 64 only")
    profile.add_argument("--full", action="store_true", help="add Ne 1024")
    parser.add_argument(
        "--child", nargs=3, type=int, metavar=("NE", "NPARTS", "REPEATS"),
        help="internal: measure one size and print JSON",
    )
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(child(*args.child)))
        return 0

    name = "ci" if args.ci else "full" if args.full else "default"
    nes = CI_NES if args.ci else FULL_NES if args.full else DEFAULT_NES
    rows = []
    for ne in nes:
        repeats = 1 if ne >= 1024 else REPEATS
        rows.append(_spawn(ne, nparts_for(ne), repeats))
        print(render(rows[-1:], name).splitlines()[-1], flush=True)

    RESULTS_TXT.parent.mkdir(exist_ok=True)
    RESULTS_TXT.write_text(render(rows, name))
    RESULTS_JSON.write_text(
        json.dumps({"schema": 1, "profile": name, "method": METHOD, "rows": rows},
                   indent=2, sort_keys=True)
        + "\n"
    )
    print(f"wrote {RESULTS_TXT} and {RESULTS_JSON.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
