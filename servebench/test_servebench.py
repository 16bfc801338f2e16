"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest servebench/test_servebench.py -q
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import served  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload):
    first = workloads.build(workload, 7, 1).to_bytes()
    again = workloads.build(workload, 7, 1).to_bytes()
    other = workloads.build(workload, 8, 1).to_bytes()
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_program_never_sees_the_seed(workload):
    seed = 918_273
    plan = workloads.build(workload, seed, 1)
    # No request field derives from the benchmark seed; the partitioner's
    # own seed field is left out (its default).
    for call in plan.fill + tuple(plan.calls()):
        assert "seed" not in call.wire
    # Neither the server's command line nor its environment carries it.
    inputs = served.server_argv() + list(run.server_env().values())
    assert not any(str(seed) in text for text in inputs)


def test_hit_mix_streams_share_one_zipf_multiset():
    plan = workloads.build("hit_mix", 3, 1)
    streams = [s for rep in plan.replicas for s in rep]
    assert len(streams) == workloads.REPLICAS * workloads.HIT_CONNECTIONS
    counts = [sorted(c.expect for c in s) for s in streams]
    assert all(c == counts[0] for c in counts)
    assert [tuple(s) for s in streams] != [tuple(streams[0])] * len(streams)
    zipf = workloads.zipf_counts(100, 10)
    assert sum(zipf) == 100 and zipf == sorted(zipf, reverse=True)


def test_cold_ladder_requests_are_distinct_and_climb():
    plan = workloads.build("cold_ladder", 3, 1)
    keys = [json.dumps([c.route, c.wire], sort_keys=True) for c in plan.calls()]
    assert len(keys) == len(set(keys))
    repartitions = [c for c in plan.calls() if c.route == "/repartition"]
    assert repartitions
    assert all(
        c.wire["ne"] <= workloads.LADDER_REPARTITION_MAX_NE for c in repartitions
    )
    for (stream,) in plan.replicas:
        nes = [c.wire["ne"] for c in stream]
        assert nes == sorted(nes)
    assert {c.wire["ne"] for c in plan.calls()} == set(workloads.ladder_sizes())


def test_storm_chains_old_assignments():
    plan = workloads.build("repartition_storm", 3, 1)
    calls = plan.calls()
    assert len(calls) == workloads.STORM_MIN_STEPS
    assert len({c.expect for c in calls}) == len(calls)
    assert all(c.wire["ne"] == workloads.STORM_NE for c in calls)


def test_vmhwm_parse():
    status = "Name:\tpython3\nVmPeak:\t  9000 kB\nVmHWM:\t  4242 kB\nVmRSS:\t 100 kB\n"
    assert served.vmhwm_kib(status) == 4242
    with pytest.raises(ValueError):
        served.vmhwm_kib("Name:\tx\n")
    assert served.parent_pid("12 (a b) c) S 34 12 12") == 34


def test_peak_rss_covers_server_and_worker_pids():
    script = textwrap.dedent(
        """
        import multiprocessing as mp, sys, time
        def hold():
            block = bytearray(64 * 1024 * 1024)
            block[::4096] = b"x" * len(block[::4096])
            time.sleep(60)
        if __name__ == "__main__":
            child = mp.get_context("fork").Process(target=hold)
            child.start()
            print("ready", flush=True)
            child.join()
        """
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True
    )
    try:
        assert proc.stdout.readline().strip() == "ready"
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            tree = served.process_tree(proc.pid)
            server, workers = served.peak_rss_mib(proc.pid)
            if len(tree) == 2 and workers > 64:
                break
            time.sleep(0.05)
        assert tree[0] == proc.pid and len(tree) == 2
        assert server > 0
        assert workers > 64  # the child's 64 MiB block
    finally:
        for pid in reversed(served.process_tree(proc.pid)):
            os.kill(pid, signal.SIGKILL)
        proc.wait(10)


def test_prometheus_parse():
    text = (
        "# HELP x y\n"
        'stage_cache_total{outcome="miss",stage="mesh"} 3\n'
        "server_queue_depth 0\n"
    )
    parsed = served.parse_prometheus(text)
    assert parsed[("stage_cache_total", (("outcome", "miss"), ("stage", "mesh")))] == 3
    assert parsed[("server_queue_depth", ())] == 0
