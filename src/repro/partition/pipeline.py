"""Staged partition pipeline: mesh → graph → partition → evaluate.

The service engine used to compute each response as one opaque call;
this module decomposes it into four explicit stages, each individually
traced (a ``stage:<name>`` telemetry span) and versioned:

* **mesh** — the cubed-sphere mesh at ``ne``;
* **graph** — the weighted element graph (edge weight = points per
  element edge from the SEAM cost model);
* **partition** — the registry-resolved method applied to the problem;
* **evaluate** — the Table-2 quality metrics of the partition.

The mesh and graph stages are memoized per process — the mesh by
:func:`repro.cubesphere.mesh.cubed_sphere_mesh`'s own LRU, the graph
in an LRU keyed by ``(stage version, parameters)`` — so a batch that
sweeps many methods at the same ``ne`` builds the mesh and graph
**once** and every other method reuses them
(``stage_cache_total{stage=...,outcome=hit}`` counts the reuse).
The partition and evaluate stages are *not* memoized here — their
results are exactly what the service engine's two-tier response
cache stores, content-addressed by request.

:data:`STAGE_VERSIONS` tags every stage's implementation; bump a
stage's version whenever its output changes and :func:`cache_version`
(the composite tag stamped into on-disk cache entries) changes with
it, so stale pre-bump entries are recomputed instead of silently
served.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cubesphere.mesh import MESH_CACHE, cubed_sphere_mesh
from ..lru import LRUCache
from ..telemetry import span
from . import registry
from .base import Partition
from .metrics import PartitionQuality, evaluate_partition

__all__ = [
    "STAGE_VERSIONS",
    "PipelineResult",
    "cache_version",
    "clear_stage_caches",
    "evaluate_stage",
    "graph_stage",
    "mesh_stage",
    "partition_stage",
    "run_pipeline",
    "stage_cache_stats",
]

#: Implementation version of every pipeline stage.  Bump a stage when
#: its output changes for identical inputs; cached responses produced
#: under a different composite version are recomputed.
STAGE_VERSIONS: dict[str, int] = {
    "mesh": 1,
    "graph": 1,
    # v2: weighted cuts gained the iterative correction pass and the
    # exact uniform-weights reduction (weighted outputs changed).
    "partition": 2,
    "evaluate": 1,
}


def cache_version() -> str:
    """Composite stage-version tag, e.g. ``"mesh1.graph1.partition1.evaluate1"``.

    Stamped into every on-disk cache entry; entries carrying a
    different (or no) tag are treated as misses and recomputed.
    """
    return ".".join(f"{s}{STAGE_VERSIONS[s]}" for s in STAGE_VERSIONS)


_GRAPH_CACHE = LRUCache(16, "stage_cache_total", stage="graph")


def stage_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/entry counts of the memoized stages (this process)."""
    return {"mesh": MESH_CACHE.stats(), "graph": _GRAPH_CACHE.stats()}


def clear_stage_caches() -> None:
    """Drop the mesh/graph stage caches and reset their counters."""
    MESH_CACHE.clear()
    _GRAPH_CACHE.clear()


def _default_npts() -> int:
    # Lazy: the SEAM cost model lives above the partition layer's
    # leaf modules and is only needed to weight graph edges.
    from ..seam.cost import DEFAULT_COST_MODEL

    return DEFAULT_COST_MODEL.npts


def mesh_stage(ne: int):
    """The cubed-sphere mesh at ``ne`` (the process-wide mesh memo)."""
    return cubed_sphere_mesh(ne)


def graph_stage(ne: int, npts: int | None = None):
    """The weighted element graph at ``ne`` (stage-cached per process).

    Args:
        ne: Elements per cube-face edge.
        npts: Edge weight (points per element edge); defaults to the
            SEAM cost model's point count.
    """
    npts = _default_npts() if npts is None else int(npts)
    key = (int(ne), npts)

    def compute():
        from ..graphs.csr import mesh_graph

        with span(
            "stage:graph", "pipeline",
            version=STAGE_VERSIONS["graph"], key=str(key),
        ):
            return mesh_graph(mesh_stage(ne), edge_weight=npts, corner_weight=1)

    return _GRAPH_CACHE.get_or_compute((STAGE_VERSIONS["graph"], *key), compute)


def partition_stage(
    method: str,
    ne: int,
    nparts: int,
    seed: int = 0,
    schedule: str | None = None,
    weights: np.ndarray | None = None,
) -> Partition:
    """Resolve ``method`` through the registry and build the partition.

    Capability violations (unknown method, inadmissible ``ne``,
    schedule/weights on a method that lacks them) raise before any
    compute starts.
    """
    spec = registry.get(method)
    problem = registry.PartitionProblem(
        ne=int(ne), nparts=int(nparts), seed=int(seed),
        schedule=schedule, weights=weights,
    )
    with span(
        "stage:partition",
        "pipeline",
        partitioner=spec.name,
        ne=int(ne),
        nparts=int(nparts),
        weighted=problem.weights is not None,
        version=STAGE_VERSIONS["partition"],
    ):
        return spec(problem)


def evaluate_stage(graph, partition: Partition) -> PartitionQuality:
    """Quality metrics (Table-2 quantities) of a partition."""
    with span(
        "stage:evaluate",
        "pipeline",
        partitioner=partition.method,
        version=STAGE_VERSIONS["evaluate"],
    ):
        return evaluate_partition(graph, partition)


@dataclass(frozen=True)
class PipelineResult:
    """Output of one full pipeline run."""

    partition: Partition
    quality: PartitionQuality


def run_pipeline(
    method: str,
    ne: int,
    nparts: int,
    seed: int = 0,
    schedule: str | None = None,
    weights: np.ndarray | None = None,
    npts: int | None = None,
) -> PipelineResult:
    """Run all four stages for one partitioning problem.

    Bit-identical to calling the underlying partitioner directly; the
    stages only add tracing and mesh/graph reuse.
    """
    graph = graph_stage(ne, npts)
    partition = partition_stage(
        method, ne, nparts, seed=seed, schedule=schedule, weights=weights
    )
    quality = evaluate_stage(graph, partition)
    return PipelineResult(partition=partition, quality=quality)
