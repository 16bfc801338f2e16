"""Partition-quality metrics: the quantities of the paper's Table 2.

Definitions follow Section 2 of Dennis (2003):

* ``LB(S) = (max S - avg S) / max S``  (Eq. 1) — 0 is perfect balance;
* *computational load balance* ``LB(nelemd)`` uses ``S`` = vertices
  (elements) per sub-graph;
* *edgecut* — the number of graph edges that straddle sub-graphs;
* *total communication volume* — the data sent between sub-graphs.  The
  paper counts "vertices whose edges are cut" (METIS's unit-size
  definition) but reports TCV in Mbytes for SEAM; we compute the
  physically meaningful quantity: for every element, the boundary
  points it must send to each *distinct* neighboring processor (edge
  weights encode shared points per neighbor link), converted to bytes
  with a configurable per-point size.  The unit-size METIS count is
  also exposed (:attr:`PartitionQuality.boundary_vertices`);
* *communication load balance* ``LB(spcv)`` uses ``S`` = per-processor
  communication volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graphs.csr import CSRGraph
from .base import Partition

__all__ = [
    "load_balance",
    "edgecut",
    "weighted_edgecut",
    "CommunicationPattern",
    "communication_pattern",
    "PartitionQuality",
    "evaluate_partition",
]


def load_balance(values: np.ndarray) -> float:
    """The paper's Eq. 1: ``LB(S) = (max S - avg S) / max S``.

    Returns 0.0 for perfectly balanced (or empty/all-zero) inputs;
    approaches 1.0 as the maximum dwarfs the average.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    mx = values.max()
    if mx <= 0:
        return 0.0
    return float((mx - values.mean()) / mx)


def edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Number of graph edges with endpoints in different parts."""
    u, v, _ = graph.edge_array()
    a = partition.assignment
    return int((a[u] != a[v]).sum())


def weighted_edgecut(graph: CSRGraph, partition: Partition) -> int:
    """Total weight of cut edges (METIS's KWAY objective)."""
    u, v, w = graph.edge_array()
    a = partition.assignment
    return int(w[(a[u] != a[v])].sum())


def _sum_by(labels: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Exact int64 per-label sums of integer ``values`` (``(n,)``)."""
    return np.bincount(labels, weights=values, minlength=n).astype(np.int64)


@dataclass(frozen=True)
class CommunicationPattern:
    """Who sends how much to whom, derived from a partition.

    The exchange model matches a spectral-element halo exchange: each
    element sends, to every *distinct* neighboring processor, the
    boundary points it shares with that processor's elements (edge
    weight = shared points of one neighbor link; points shared with
    several elements of the same destination part are sent once, so
    per-destination volume is capped at the element's perimeter point
    budget implied by its incident edge weights).

    Attributes:
        nparts: Number of processors.
        send_points: ``(nparts,)`` points sent by each processor
            (the paper's ``spcv`` in point units).
        pair_points: Dict ``(src, dst) -> points`` for every directed
            communicating pair.
        message_counts: ``(nparts,)`` number of distinct destination
            processors of each processor.
        boundary_vertices: ``(nparts,)`` count of vertices with at
            least one cut edge (METIS's unit-size volume per part).
    """

    nparts: int
    send_points: np.ndarray
    pair_points: dict[tuple[int, int], int]
    message_counts: np.ndarray
    boundary_vertices: np.ndarray

    def total_points(self) -> int:
        """Total communication volume in points (sum of ``spcv``)."""
        return int(self.send_points.sum())

    def total_bytes(self, bytes_per_point: int) -> int:
        return self.total_points() * bytes_per_point

    def pair_bytes(self, bytes_per_point: int) -> dict[tuple[int, int], int]:
        return {k: v * bytes_per_point for k, v in self.pair_points.items()}


def communication_pattern(
    graph: CSRGraph, partition: Partition
) -> CommunicationPattern:
    """Compute the full :class:`CommunicationPattern` of a partition.

    Vectorized over the directed edge list: every directed cut edge
    ``v -> u`` contributes its weight to the ``(part[v], part[u])``
    pair and to ``send_points[part[v]]``.
    """
    a = partition.assignment
    nparts = partition.nparts
    src = graph.edge_sources()
    cut = a[src] != a[graph.indices]
    csrc, cw = src[cut], graph.eweights[cut]
    psrc, pdst = a[csrc], a[graph.indices[cut]]
    send_points = _sum_by(psrc, cw, nparts)
    # Pair volumes via flat keys.
    uniq, inv = np.unique(psrc * nparts + pdst, return_inverse=True)
    sums = _sum_by(inv, cw, len(uniq))
    pair_points = {
        (int(k // nparts), int(k % nparts)): int(s) for k, s in zip(uniq, sums)
    }
    message_counts = np.bincount(uniq // nparts, minlength=nparts)
    # Boundary vertices per part (unit-size METIS volume).
    is_boundary = np.zeros(graph.nvertices, dtype=bool)
    is_boundary[csrc] = True
    boundary_vertices = np.bincount(a[is_boundary], minlength=nparts)
    return CommunicationPattern(
        nparts=nparts,
        send_points=send_points,
        pair_points=pair_points,
        message_counts=message_counts,
        boundary_vertices=boundary_vertices,
    )


@dataclass(frozen=True)
class PartitionQuality:
    """All Table-2 metrics of one partition.

    Attributes:
        method: Partitioner label.
        nparts: Processor count.
        lb_nelemd: Computational load balance ``LB(nelemd)`` (Eq. 1
            over per-processor element counts; weighted variant in
            :attr:`lb_weight` when vertex weights are non-uniform).
        lb_weight: ``LB`` over per-processor vertex *weight*.
        lb_spcv: Communication load balance ``LB(spcv)``.
        edgecut: Unweighted cut-edge count.
        weighted_edgecut: Cut weight (shared points across cuts).
        total_volume_points: TCV in point units.
        boundary_vertices: METIS unit-size total volume (count of
            vertices with a cut edge).
        nelemd: Per-processor element counts.
        spcv: Per-processor send volumes (points).
    """

    method: str
    nparts: int
    lb_nelemd: float
    lb_weight: float
    lb_spcv: float
    edgecut: int
    weighted_edgecut: int
    total_volume_points: int
    boundary_vertices: int
    nelemd: np.ndarray = field(repr=False)
    spcv: np.ndarray = field(repr=False)

    def total_volume_bytes(self, bytes_per_point: int) -> int:
        return self.total_volume_points * bytes_per_point

    def total_volume_mbytes(self, bytes_per_point: int) -> float:
        return self.total_volume_bytes(bytes_per_point) / 1.0e6


def evaluate_partition(
    graph: CSRGraph, partition: Partition
) -> PartitionQuality:
    """Compute every partition metric in one pass."""
    partition.validate(allow_empty=True)
    sizes = partition.part_sizes()
    weights = partition.part_weights(graph.vweights)
    a = partition.assignment
    src = graph.edge_sources()
    dst = graph.indices
    w = graph.eweights
    cut = a[src] != a[dst]
    csrc = src[cut]
    spcv = _sum_by(a[csrc], w[cut], partition.nparts)
    is_boundary = np.zeros(graph.nvertices, dtype=bool)
    is_boundary[csrc] = True
    # Each undirected edge once: the directed copy with src < dst.
    cut &= src < dst
    return PartitionQuality(
        method=partition.method,
        nparts=partition.nparts,
        lb_nelemd=load_balance(sizes),
        lb_weight=load_balance(weights),
        lb_spcv=load_balance(spcv),
        edgecut=int(cut.sum()),
        weighted_edgecut=int(w[cut].sum()),
        total_volume_points=int(spcv.sum()),
        boundary_vertices=int(is_boundary.sum()),
        nelemd=sizes,
        spcv=spcv,
    )
