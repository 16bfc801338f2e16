"""Service instrumentation: per-source counts, timing and utilization.

The engine and the server record every served response and the engine
one wall-clock sample per batch.  :class:`ServiceStats` keeps only
running totals — a count per response source plus summed compute and
wall seconds — so its memory and the cost of :meth:`~ServiceStats.summary`
stay constant however long a server runs.  It derives the numbers an
operator cares about (hit rate, throughput, worker utilization) and
renders them via :func:`~repro.report.format_table` so service
telemetry looks like every other table in the repo.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

__all__ = ["ServiceStats"]


@dataclass
class ServiceStats:
    """Aggregated engine telemetry across one or more batches.

    A response's ``source`` is ``"computed"``, ``"memory"``, ``"disk"``,
    ``"dedup"`` (a within-batch duplicate sharing another request's
    answer) or ``"coalesced"`` (a concurrent server request that
    joined another request's in-flight compute).

    Attributes:
        jobs: Worker count of the owning engine.
        sources: Served responses per source.
        compute_s: Total worker compute time of computed responses
            (sums across parallel workers).
        wall_s: Summed wall-clock seconds of every ``run()`` call.
    """

    jobs: int = 1
    sources: Counter = field(default_factory=Counter)
    compute_s: float = 0.0
    wall_s: float = 0.0

    def record(self, response) -> None:
        """Count one served response."""
        self.sources[response.source] += 1
        if response.source == "computed":
            self.compute_s += response.elapsed_s

    def record_batch_wall(self, wall_s: float) -> None:
        self.wall_s += wall_s

    # -- aggregates -----------------------------------------------------

    @property
    def total_requests(self) -> int:
        return sum(self.sources.values())

    def count(self, source: str) -> int:
        return self.sources[source]

    @property
    def hits(self) -> int:
        """Requests answered without computing (memory or disk)."""
        return self.total_requests - self.count("computed")

    @property
    def hit_rate(self) -> float:
        total = self.total_requests
        return self.hits / total if total else 0.0

    @property
    def throughput(self) -> float:
        """Requests served per wall-clock second."""
        return self.total_requests / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def worker_utilization(self) -> float:
        """Fraction of the worker pool kept busy, in [0, 1]."""
        if self.wall_s <= 0 or self.jobs < 1:
            return 0.0
        return min(1.0, self.compute_s / (self.wall_s * self.jobs))

    # -- rendering ------------------------------------------------------

    def summary(self) -> dict[str, float | int]:
        return {
            "requests": self.total_requests,
            "computed": self.count("computed"),
            "memory_hits": self.count("memory"),
            "disk_hits": self.count("disk"),
            "dedup_hits": self.count("dedup"),
            "coalesced": self.count("coalesced"),
            "hit_rate": self.hit_rate,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "throughput_rps": self.throughput,
            "worker_utilization": self.worker_utilization,
            "jobs": self.jobs,
        }

    def render(self) -> str:
        """Render the summary as an aligned text table."""
        from ..report import format_table

        return format_table(
            ["metric", "value"],
            [[k, v] for k, v in self.summary().items()],
            title="Partition service stats",
        )
