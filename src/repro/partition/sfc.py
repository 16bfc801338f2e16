"""Space-filling-curve partitioning (the paper's contribution).

"The space-filling curve is then subdivided into equal sized segments
to achieve the partitioning" (paper Sec. 3).  With uniform element
weights and ``Nproc`` dividing ``K`` this produces *perfectly balanced*
partitions — ``LB(nelemd) = 0`` — which is exactly the property that
lets SFC partitions beat METIS at ``O(1)`` elements per processor.

Two cutting rules are provided:

* :func:`cut_positions_uniform` — equal-count segments (ties broken by
  giving earlier segments the extra element), the paper's rule;
* :func:`cut_positions_weighted` — greedy prefix-sum cuts for weighted
  elements, the standard SFC generalization used by adaptive codes
  (Pilkington & Baden), followed by the iterative correction pass of
  Borrell et al. (:func:`refine_cut_positions`): single-element
  boundary shifts accepted only when they strictly reduce the larger
  of the two adjacent segment loads, so the refined cuts are provably
  never worse than the greedy ones.  Under uniform weights the rule
  short-circuits to :func:`cut_positions_uniform` exactly.

Two cutting *paths* apply the rules:

* :func:`partition_curve` — cut a materialized
  :class:`~repro.cubesphere.curve.CubedSphereCurve` (the paper's
  construction, O(K) curve arrays);
* :func:`keyed_cut` / :func:`sfc_partition` — the scalable path per
  Borrell et al.: stream element ids in chunks, map each chunk straight
  to uint64 curve keys (:func:`repro.cubesphere.curve.element_keys`),
  and bucket the keys against the prefix-sum cut bounds.  Peak memory
  is O(chunk) beyond the assignment itself, and the result is
  bit-identical to cutting the materialized curve (golden-tested).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..cubesphere.curve import CubedSphereCurve, cubed_sphere_curve, element_keys
from ..sfc.factorization import factorize_2_3
from ..sfc.keys import morton_keys
from ..telemetry import span
from .base import Partition

__all__ = [
    "DEFAULT_CHUNK",
    "cut_positions_uniform",
    "cut_positions_weighted",
    "keyed_cut",
    "morton_partition",
    "partition_curve",
    "refine_cut_positions",
    "sfc_partition",
]

#: Elements keyed per chunk on the streaming cut path (~24 MB of
#: transient arrays per chunk at int64/uint64 widths).
DEFAULT_CHUNK = 1 << 20


def cut_positions_uniform(ncells: int, nparts: int) -> np.ndarray:
    """Segment boundaries for equal-count cutting.

    Returns:
        ``(nparts + 1,)`` int array ``b`` with segment ``p`` covering
        curve positions ``[b[p], b[p + 1])``; segment sizes differ by
        at most one, larger segments first.
    """
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > ncells:
        raise ValueError(f"more parts ({nparts}) than cells ({ncells})")
    base, extra = divmod(ncells, nparts)
    sizes = np.full(nparts, base, dtype=np.int64)
    sizes[:extra] += 1
    bounds = np.zeros(nparts + 1, dtype=np.int64)
    np.cumsum(sizes, out=bounds[1:])
    return bounds


def cut_positions_weighted(
    weights: np.ndarray, nparts: int, refine: bool = True
) -> np.ndarray:
    """Segment boundaries balancing the weight prefix sums.

    Cuts the curve where the running weight crosses multiples of
    ``total / nparts`` — the classical 1-D chains-on-chains heuristic —
    then (by default) applies the iterative correction pass of Borrell
    et al. (:func:`refine_cut_positions`), which can only improve the
    load balance.  Every segment is non-empty provided
    ``nparts <= len(weights)``.  Uniform weights reduce *exactly* to
    :func:`cut_positions_uniform` (equal counts, larger segments
    first), so weighted and unweighted requests with trivial weights
    produce identical partitions.

    Args:
        weights: Positive weight of each cell *in curve order*.
        nparts: Number of segments.
        refine: Apply the correction pass after the greedy cuts.
    """
    weights = np.asarray(weights, dtype=np.float64)
    ncells = len(weights)
    if nparts < 1:
        raise ValueError("nparts must be >= 1")
    if nparts > ncells:
        raise ValueError(f"more parts ({nparts}) than cells ({ncells})")
    if (weights <= 0).any():
        raise ValueError("weights must be positive")
    if ncells and (weights == weights[0]).all():
        return cut_positions_uniform(ncells, nparts)
    prefix = np.cumsum(weights)
    total = prefix[-1]
    targets = total * np.arange(1, nparts) / nparts
    cuts = np.searchsorted(prefix - 0.5 * weights, targets, side="left")
    bounds = np.concatenate([[0], cuts, [ncells]]).astype(np.int64)
    # Enforce non-empty segments (strictly increasing interior bounds;
    # the endpoints 0 and ncells are fixed).
    for p in range(1, nparts):
        if bounds[p] <= bounds[p - 1]:
            bounds[p] = bounds[p - 1] + 1
    for p in range(nparts - 1, 0, -1):
        if bounds[p] >= bounds[p + 1]:
            bounds[p] = bounds[p + 1] - 1
    if bounds[0] != 0 or bounds[-1] != ncells or (np.diff(bounds) < 1).any():
        raise ValueError("cannot produce non-empty segments")
    if refine:
        bounds = refine_cut_positions(weights, bounds)
    return bounds


def refine_cut_positions(
    weights: np.ndarray,
    bounds: np.ndarray,
    max_sweeps: int | None = None,
) -> np.ndarray:
    """Iterative correction pass over segment boundaries (Borrell et al.).

    Sweeps the interior cut positions, shifting one element at a time
    across a boundary whenever that *strictly reduces the larger* of
    the two adjacent segment loads (and keeps both segments non-empty).
    Segment loads are always recomputed from one fixed prefix-sum
    array, so they are a pure function of the bounds: each accepted
    shift strictly decreases the sorted load vector lexicographically,
    which guarantees termination and that the final maximum load —
    hence LB — is never worse than the input cuts'.

    Args:
        weights: Positive weight of each cell in curve order.
        bounds: ``(nparts + 1,)`` cut positions (not modified).
        max_sweeps: Optional safety cap on full sweeps; by default the
            pass runs to its (guaranteed) fixpoint.

    Returns:
        A new bounds array of the same shape.
    """
    weights = np.asarray(weights, dtype=np.float64)
    bounds = np.array(bounds, dtype=np.int64)
    nparts = len(bounds) - 1
    prefix = np.concatenate([[0.0], np.cumsum(weights)])

    sweeps = 0
    moved = True
    while moved and (max_sweeps is None or sweeps < max_sweeps):
        moved = False
        sweeps += 1
        for p in range(1, nparts):
            lo, hi = bounds[p - 1], bounds[p + 1]
            start, end = prefix[lo], prefix[hi]
            # Candidate loads must come from the same prefix array as
            # the current ones: loads formed as ``left - w`` round
            # differently and can accept a shift and its reverse forever.
            while True:
                b = bounds[p]
                at = prefix[b]
                worse = max(at - start, end - at)
                # Shift the left segment's last element rightward.
                if b - lo >= 2:
                    at = prefix[b - 1]
                    if max(at - start, end - at) < worse:
                        bounds[p] = b - 1
                        moved = True
                        continue
                # Shift the right segment's first element leftward.
                if hi - b >= 2:
                    at = prefix[b + 1]
                    if max(at - start, end - at) < worse:
                        bounds[p] = b + 1
                        moved = True
                        continue
                break
    return bounds


def partition_curve(
    curve: CubedSphereCurve,
    nparts: int,
    weights: np.ndarray | None = None,
) -> Partition:
    """Partition a cubed-sphere mesh by cutting its global curve.

    Args:
        curve: Global SFC over the mesh (:func:`cubed_sphere_curve`).
        nparts: Number of processors.
        weights: Optional per-*element* (gid-indexed) weights; when
            given, cuts balance weight rather than element count.

    Returns:
        A :class:`Partition` labeled ``"sfc"``.
    """
    ncells = len(curve)
    if weights is None:
        bounds = cut_positions_uniform(ncells, nparts)
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if len(weights) != ncells:
            raise ValueError("weights must have one entry per element")
        bounds = cut_positions_weighted(weights[curve.order], nparts)
    owner_along_curve = np.empty(ncells, dtype=np.int64)
    for p in range(nparts):
        owner_along_curve[bounds[p] : bounds[p + 1]] = p
    assignment = np.empty(ncells, dtype=np.int64)
    assignment[curve.order] = owner_along_curve
    return Partition(assignment, nparts=nparts, method="sfc")


def keyed_cut(
    key_fn: Callable[[np.ndarray], np.ndarray],
    ncells: int,
    nparts: int,
    weights: np.ndarray | None = None,
    chunk: int | None = None,
    method: str = "sfc",
) -> Partition:
    """Cut a curve by streaming its keys — never materializing it.

    The keys of ``[0, ncells)`` must be a bijection onto ``[0, ncells)``
    (each element's position along the traversal).  Elements are keyed
    in chunks and bucketed against the cut bounds with a binary search,
    so peak memory is O(chunk) beyond the assignment array itself —
    the chunked keying + prefix-sum cutting pass of Borrell et al.

    Args:
        key_fn: Maps an array of element ids to their uint64 keys.
        ncells: Total element count.
        nparts: Number of segments.
        weights: Optional per-element (id-indexed) weights; cuts then
            balance weight instead of element count (one extra chunked
            pass scatters the weights into key order first).
        chunk: Elements keyed per pass (default :data:`DEFAULT_CHUNK`).
        method: Label stamped on the produced partition.

    Returns:
        The :class:`Partition`; bit-identical to cutting the
        materialized traversal with the same rule.
    """
    chunk = DEFAULT_CHUNK if chunk is None else int(chunk)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    with span("keyed_cut", "sfc", ncells=ncells, nparts=nparts, method=method):
        if weights is None:
            bounds = cut_positions_uniform(ncells, nparts)
        else:
            weights = np.asarray(weights, dtype=np.float64)
            if len(weights) != ncells:
                raise ValueError("weights must have one entry per element")
            along_curve = np.empty(ncells, dtype=np.float64)
            for lo in range(0, ncells, chunk):
                ids = np.arange(lo, min(lo + chunk, ncells), dtype=np.int64)
                along_curve[key_fn(ids)] = weights[ids]
            bounds = cut_positions_weighted(along_curve, nparts)
        assignment = np.empty(ncells, dtype=np.int64)
        for lo in range(0, ncells, chunk):
            ids = np.arange(lo, min(lo + chunk, ncells), dtype=np.int64)
            keys = key_fn(ids).astype(np.int64, copy=False)
            assignment[lo : lo + len(ids)] = (
                np.searchsorted(bounds, keys, side="right") - 1
            )
        return Partition(assignment, nparts=nparts, method=method)


def sfc_partition(
    ne: int,
    nparts: int,
    schedule: str | None = None,
    weights: np.ndarray | None = None,
    chunk: int | None = None,
) -> Partition:
    """Convenience wrapper: SFC-partition the cubed-sphere at ``ne``.

    Uses the streaming key path (:func:`keyed_cut`): the global curve
    is never materialized, so resolutions far beyond the paper's
    (Ne >= 1024, K in the millions) partition in O(chunk) peak memory.
    Bit-identical to ``partition_curve(cubed_sphere_curve(ne), ...)``.

    Args:
        ne: Elements per cube-face edge (must be ``2^n * 3^m``).
        nparts: Number of processors.
        schedule: Optional face-local refinement schedule (for the
            refinement-order ablation).
        weights: Optional per-element weights.
        chunk: Elements keyed per streaming pass.
    """
    factorize_2_3(ne)  # surface inadmissible sizes before any work
    return keyed_cut(
        lambda ids: element_keys(ne, schedule, gids=ids),
        6 * ne * ne,
        nparts,
        weights=weights,
        chunk=chunk,
        method="sfc",
    )


def morton_partition(
    ne: int,
    nparts: int,
    weights: np.ndarray | None = None,
    chunk: int | None = None,
) -> Partition:
    """Partition by cutting the per-face Morton (Z-order) traversal.

    Faces are visited in storage order with the identity orientation —
    Morton's "Z" jumps make it *discontinuous*, so no face chaining can
    produce a single continuous curve (the curve-baselines ablation
    demonstrates this), and segments may straddle distant blocks.
    Registered as the ``morton`` method for exactly that comparison.

    Args:
        ne: Elements per cube-face edge; must be a power of two.
        nparts: Number of processors.
        weights: Optional per-element weights.
        chunk: Elements keyed per streaming pass.
    """
    if ne < 1 or ne & (ne - 1):
        raise ValueError(
            f"morton partitioning needs ne = 2^n (bit interleave), got {ne}"
        )
    n2 = ne * ne

    def key_fn(ids: np.ndarray) -> np.ndarray:
        face, rem = np.divmod(ids, n2)
        iy, ix = np.divmod(rem, ne)
        keys = morton_keys(ix, iy, ne, check=False)
        keys += face.astype(np.uint64) * np.uint64(n2)
        return keys

    return keyed_cut(
        key_fn, 6 * n2, nparts, weights=weights, chunk=chunk, method="morton"
    )
