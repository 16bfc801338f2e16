"""Unit tests for service telemetry."""

from __future__ import annotations

from repro.service import (
    PartitionRequest,
    PartitionResponse,
    ServiceStats,
    compute_response,
)


def response(nparts: int, source: str, elapsed: float) -> PartitionResponse:
    base = compute_response(PartitionRequest(ne=2, nparts=nparts))
    return PartitionResponse(
        request=base.request,
        assignment=base.assignment,
        metrics=base.metrics,
        elapsed_s=elapsed,
        source=source,
    )


def test_empty_stats():
    stats = ServiceStats()
    assert stats.total_requests == 0
    assert stats.hit_rate == 0.0
    assert stats.throughput == 0.0
    assert stats.worker_utilization == 0.0


def test_empty_stats_summary_and_render_do_not_crash():
    """Regression: zero requests must render, not divide by zero."""
    stats = ServiceStats()
    summary = stats.summary()
    assert summary["requests"] == 0
    assert summary["hit_rate"] == 0.0
    assert summary["throughput_rps"] == 0.0
    text = stats.render()
    assert "Partition service stats" in text


def test_zero_elapsed_batch_does_not_crash():
    """Regression: a batch that takes ~0 wall seconds (all cache hits)."""
    stats = ServiceStats(jobs=2)
    stats.record(response(2, "memory", 0.0))
    stats.record_batch_wall(0.0)
    assert stats.throughput == 0.0
    assert stats.worker_utilization == 0.0
    summary = stats.summary()
    assert summary["wall_s"] == 0.0
    assert "memory" in stats.render()


def test_engine_empty_batch():
    """Regression: serving an empty request list is a no-op, not a crash."""
    from repro.service import PartitionEngine

    with PartitionEngine() as engine:
        assert engine.run([]) == []
    assert engine.stats.summary()["requests"] == 0
    engine.stats.render()


def test_counts_and_hit_rate():
    stats = ServiceStats(jobs=2)
    stats.record(response(2, "computed", 0.1))
    stats.record(response(3, "memory", 0.0))
    stats.record(response(4, "disk", 0.0))
    stats.record(response(6, "computed", 0.3))
    assert stats.total_requests == 4
    assert stats.count("computed") == 2
    assert stats.hits == 2
    assert stats.hit_rate == 0.5
    assert stats.compute_s == 0.4


def test_throughput_and_utilization():
    stats = ServiceStats(jobs=2)
    stats.record(response(2, "computed", 0.6))
    stats.record(response(3, "computed", 0.6))
    stats.record_batch_wall(1.0)
    assert stats.wall_s == 1.0
    assert stats.throughput == 2.0
    assert stats.worker_utilization == 0.6  # 1.2s compute over 2 workers x 1s

    # Utilization is clamped even if timers overlap oddly.
    stats.record(response(4, "computed", 10.0))
    assert stats.worker_utilization == 1.0


def test_summary_keys_match_render():
    stats = ServiceStats(jobs=1)
    stats.record(response(2, "computed", 0.05))
    stats.record_batch_wall(0.1)
    summary = stats.summary()
    text = stats.render()
    for key in summary:
        assert key in text
    assert "Partition service stats" in text
    assert "computed" in text
