"""Weighted undirected graphs in CSR (compressed sparse row) form.

This is the substrate shared by the METIS-style partitioner and the
partition-quality metrics.  The representation mirrors what METIS
itself consumes (Sec. 2 of the paper): an undirected graph
``G = [V, E]`` with integer vertex weights (computation per element)
and integer edge weights (information exchanged across each element
boundary).

The CSR layout stores every undirected edge twice (once per endpoint)
so neighbor iteration is a contiguous slice — the cache-friendly access
pattern the HPC guides recommend — and all bulk operations (degree,
cut, volume) are vectorized NumPy reductions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._native import LIB as _NATIVE
from .._native import as_i64p as _p

__all__ = ["CSRGraph", "graph_from_edges", "mesh_graph"]


@dataclass(frozen=True)
class CSRGraph:
    """Undirected vertex- and edge-weighted graph in CSR form.

    Attributes:
        indptr: ``(n + 1,)`` int64; neighbors of vertex ``v`` live at
            ``indices[indptr[v]:indptr[v + 1]]``.
        indices: ``(2m,)`` int64 neighbor ids (each undirected edge
            appears in both endpoints' slices).
        eweights: ``(2m,)`` int64 edge weights, aligned with
            :attr:`indices`; symmetric by construction.
        vweights: ``(n,)`` int64 vertex weights.
    """

    indptr: np.ndarray
    indices: np.ndarray
    eweights: np.ndarray
    vweights: np.ndarray

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices, self.eweights, self.vweights):
            arr.setflags(write=False)

    # -- basic shape ---------------------------------------------------
    @property
    def nvertices(self) -> int:
        return len(self.vweights)

    @property
    def nedges(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def __len__(self) -> int:
        return self.nvertices

    # -- access --------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.eweights[self.indptr[v] : self.indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def adjacency_lists(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """CSR arrays as plain Python int lists (cached per graph).

        The sequential kernels (matching, FM, greedy K-way, GGGP) walk
        adjacency one vertex at a time; at mesh-graph degrees (~8)
        Python-int list indexing beats NumPy scalar indexing by an
        order of magnitude, and — everything being exact int64
        arithmetic — produces bit-identical results.

        Returns:
            ``(indptr, indices, eweights, vweights)`` lists.
        """
        cached = self.__dict__.get("_adj_lists")
        if cached is None:
            cached = (
                self.indptr.tolist(),
                self.indices.tolist(),
                self.eweights.tolist(),
                self.vweights.tolist(),
            )
            object.__setattr__(self, "_adj_lists", cached)
        return cached

    def total_vweight(self) -> int:
        cached = self.__dict__.get("_total_vweight")
        if cached is None:
            cached = int(self.vweights.sum())
            object.__setattr__(self, "_total_vweight", cached)
        return cached

    def max_vweight(self) -> int:
        """Largest vertex weight (cached); 0 for the empty graph."""
        cached = self.__dict__.get("_max_vweight")
        if cached is None:
            cached = int(self.vweights.max()) if len(self.vweights) else 0
            object.__setattr__(self, "_max_vweight", cached)
        return cached

    def neighbor_slices(self) -> tuple[list, list]:
        """Per-vertex neighbor and edge-weight lists (cached).

        ``(nbrs, wts)`` with ``nbrs[v]`` / ``wts[v]`` plain-int lists —
        the feed for the sequential kernels (FM passes, greedy growth,
        BFS), which iterate ``zip(nbrs[v], wts[v])`` instead of
        re-slicing the flat CSR arrays on every visit.
        """
        cached = self.__dict__.get("_nbr_slices")
        if cached is None:
            indptr, indices, eweights, _ = self.adjacency_lists()
            n = self.nvertices
            nbrs = [None] * n
            wts = [None] * n
            lo = 0
            for v in range(n):
                hi = indptr[v + 1]
                nbrs[v] = indices[lo:hi]
                wts[v] = eweights[lo:hi]
                lo = hi
            cached = (nbrs, wts)
            object.__setattr__(self, "_nbr_slices", cached)
        return cached

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every directed CSR edge, ``(2m,)`` (cached).

        ``edge_sources()[i]`` is the vertex whose adjacency slice
        contains position ``i`` — the expansion every bulk edge
        computation (cut, volume, subgraph) needs.
        """
        cached = self.__dict__.get("_edge_sources")
        if cached is None:
            cached = np.repeat(np.arange(self.nvertices), self.degrees())
            cached.setflags(write=False)
            object.__setattr__(self, "_edge_sources", cached)
        return cached

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each undirected edge once: ``(u, v, w)`` with ``u < v``."""
        src = self.edge_sources()
        mask = src < self.indices
        return src[mask], self.indices[mask], self.eweights[mask]

    def max_incident_weight(self) -> int:
        """Largest total edge weight incident to any vertex (cached).

        Bounds every move gain in the refinement kernels; the
        bucket-gain queues size their gain range with it.
        """
        cached = self.__dict__.get("_max_incident")
        if cached is None:
            n = self.nvertices
            if n == 0:
                cached = 0
            elif n <= 64:
                _, wts = self.neighbor_slices()
                cached = max(map(sum, wts))
            else:
                inc = np.zeros(n, dtype=np.int64)
                np.add.at(inc, self.edge_sources(), self.eweights)
                cached = int(inc.max())
            object.__setattr__(self, "_max_incident", cached)
        return cached

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ValueError` on structural inconsistencies.

        Checks monotone ``indptr``, index bounds, absence of
        self-loops, adjacency symmetry and edge-weight symmetry.
        Intended for tests and for guarding partitioner inputs; cost is
        ``O(m log m)``.
        """
        n = self.nvertices
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr endpoints inconsistent with indices")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= n
        ):
            raise ValueError("neighbor index out of range")
        src = np.repeat(np.arange(n), self.degrees())
        if (src == self.indices).any():
            raise ValueError("self-loops are not allowed")
        fwd = np.stack([src, self.indices], axis=1)
        rev = np.stack([self.indices, src], axis=1)
        fwd_v = np.lexsort((fwd[:, 1], fwd[:, 0]))
        rev_v = np.lexsort((rev[:, 1], rev[:, 0]))
        if not np.array_equal(fwd[fwd_v], rev[rev_v]):
            raise ValueError("adjacency is not symmetric")
        if not np.array_equal(self.eweights[fwd_v], self.eweights[rev_v]):
            raise ValueError("edge weights are not symmetric")

    # -- derived quantities ----------------------------------------------
    def adjacency_matrix(self):
        """The graph as a ``scipy.sparse.csr_matrix`` of edge weights."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.eweights.astype(np.float64), self.indices, self.indptr),
            shape=(self.nvertices, self.nvertices),
        )

    def subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns:
            ``(sub, mapping)`` where ``mapping[i]`` is the original id
            of the subgraph's vertex ``i``.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        if _NATIVE is not None:
            sub = self._subgraph_native(vertices)
            if sub is not None:
                return sub, vertices
        if len(vertices) <= 48:
            sub = self._subgraph_small(vertices.tolist())
            if sub is not None:
                return sub, vertices
        local = -np.ones(self.nvertices, dtype=np.int64)
        local[vertices] = np.arange(len(vertices))
        src_all = self.edge_sources()
        keep = (local[src_all] >= 0) & (local[self.indices] >= 0)
        u = local[src_all[keep]]
        v = local[self.indices[keep]]
        w = self.eweights[keep]
        order = np.lexsort((v, u))
        u, v, w = u[order], v[order], w[order]
        indptr = np.searchsorted(u, np.arange(len(vertices) + 1)).astype(np.int64)
        return (
            CSRGraph(
                indptr=indptr,
                indices=v.copy(),
                eweights=w.copy(),
                vweights=self.vweights[vertices].copy(),
            ),
            vertices,
        )

    def _subgraph_native(self, vertices: np.ndarray) -> "CSRGraph | None":
        """Compiled-kernel induced subgraph for ascending vertex sets.

        Returns ``None`` (vectorized/list fallback) when the kernel
        library is unavailable or ``vertices`` is not strictly
        ascending.  Row filtering in ascending-local-id order produces
        the exact arrays of the lexsort-based path.
        """
        k = len(vertices)
        vertices = np.ascontiguousarray(vertices, dtype=np.int64)
        cap = int(self.indptr[-1])
        out_indptr = np.empty(k + 1, dtype=np.int64)
        out_indices = np.empty(cap, dtype=np.int64)
        out_weights = np.empty(cap, dtype=np.int64)
        out_vweights = np.empty(k, dtype=np.int64)
        scalars = np.empty(3, dtype=np.int64)
        nnz = _NATIVE.subgraph_extract(
            self.nvertices,
            _p(self.indptr), _p(self.indices),
            _p(self.eweights), _p(self.vweights),
            _p(vertices), k,
            _p(out_indptr), _p(out_indices), _p(out_weights),
            _p(out_vweights), _p(scalars),
        )
        if nnz < 0:
            return None
        sub = CSRGraph(
            indptr=out_indptr,
            indices=out_indices[:nnz].copy(),
            eweights=out_weights[:nnz].copy(),
            vweights=out_vweights,
        )
        object.__setattr__(sub, "_max_incident", int(scalars[0]))
        object.__setattr__(sub, "_total_vweight", int(scalars[1]))
        object.__setattr__(sub, "_max_vweight", int(scalars[2]))
        return sub

    def _subgraph_small(self, verts: list[int]) -> "CSRGraph | None":
        """List-kernel induced subgraph for small ascending vertex sets.

        Returns ``None`` when ``verts`` is not strictly ascending (the
        vectorized path handles arbitrary order).  With ascending
        vertices the local ids are monotone in the global ids, so
        filtering each (already id-sorted) parent adjacency slice
        yields the exact arrays of the lexsort-based path.
        """
        prev = -1
        for g in verts:
            if g <= prev:
                return None
            prev = g
        _, _, _, vweights = self.adjacency_lists()
        nbrs, wts = self.neighbor_slices()
        n = self.nvertices
        if n <= 4 * len(verts) + 64:
            local: list[int] = [-1] * n
            for i, g in enumerate(verts):
                local[g] = i
        else:
            # Sparse selection from a big parent: dict avoids the O(n)
            # scratch fill.
            local = _DictLocal(verts)  # type: ignore[assignment]
        sub_indptr = [0]
        sub_indices: list[int] = []
        sub_weights: list[int] = []
        app_i = sub_indices.append
        app_w = sub_weights.append
        maxinc = 0
        for g in verts:
            inc = 0
            for u, w in zip(nbrs[g], wts[g]):
                li = local[u]
                if li >= 0:
                    app_i(li)
                    app_w(w)
                    inc += w
            if inc > maxinc:
                maxinc = inc
            sub_indptr.append(len(sub_indices))
        sub_vweights = [vweights[g] for g in verts]
        sub = CSRGraph(
            indptr=np.array(sub_indptr, dtype=np.int64),
            indices=np.array(sub_indices, dtype=np.int64),
            eweights=np.array(sub_weights, dtype=np.int64),
            vweights=np.array(sub_vweights, dtype=np.int64),
        )
        # The list forms and per-vertex sums are already in hand — seed
        # the kernel caches so the partitioner doesn't recompute them
        # from the arrays.
        object.__setattr__(
            sub, "_adj_lists", (sub_indptr, sub_indices, sub_weights, sub_vweights)
        )
        object.__setattr__(sub, "_max_incident", maxinc)
        if sub_vweights:
            object.__setattr__(sub, "_total_vweight", sum(sub_vweights))
            object.__setattr__(sub, "_max_vweight", max(sub_vweights))
        return sub


class _DictLocal(dict):
    """Global→local vertex map returning ``-1`` for unselected vertices."""

    def __init__(self, verts: list[int]) -> None:
        super().__init__((g, i) for i, g in enumerate(verts))

    def __missing__(self, key: int) -> int:
        return -1


def graph_from_edges(
    nvertices: int,
    edges: np.ndarray,
    eweights: np.ndarray | None = None,
    vweights: np.ndarray | None = None,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from an undirected edge list.

    Args:
        nvertices: Vertex count.
        edges: ``(m, 2)`` int array, each undirected edge once (any
            endpoint order); self-loops, duplicates and endpoints
            outside ``[0, nvertices)`` are rejected.
        eweights: ``(m,)`` edge weights (default all 1).
        vweights: ``(n,)`` vertex weights (default all 1).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    m = len(edges)
    if eweights is None:
        eweights = np.ones(m, dtype=np.int64)
    else:
        eweights = np.asarray(eweights, dtype=np.int64)
        if len(eweights) != m:
            raise ValueError("eweights length mismatch")
    if vweights is None:
        vweights = np.ones(nvertices, dtype=np.int64)
    else:
        vweights = np.asarray(vweights, dtype=np.int64)
        if len(vweights) != nvertices:
            raise ValueError("vweights length mismatch")
    if m and (edges[:, 0] == edges[:, 1]).any():
        raise ValueError("self-loops are not allowed")
    if m and (edges.min() < 0 or edges.max() >= nvertices):
        raise ValueError("edge endpoint out of range")
    # Both checks and the CSR order run on one int64 key per edge.
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    canon = np.sort(lo * nvertices + hi)
    if (canon[1:] == canon[:-1]).any():
        raise ValueError("duplicate edges are not allowed")
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w = np.concatenate([eweights, eweights])
    order = np.argsort(src * nvertices + dst)
    dst, w = dst[order], w[order]
    indptr = np.zeros(nvertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nvertices), out=indptr[1:])
    return CSRGraph(indptr=indptr, indices=dst, eweights=w, vweights=vweights)


def mesh_graph(
    mesh,
    edge_weight: int = 8,
    corner_weight: int = 1,
    vweights: np.ndarray | None = None,
) -> CSRGraph:
    """The element-connectivity graph of a cubed-sphere mesh.

    Following the paper's Section 2: vertices are spectral elements
    (weight = computation per element, uniform by default); edges carry
    the amount of information exchanged across each boundary — ``np``
    GLL points for edge neighbors (SEAM uses ``np = 8``) and a single
    point for corner neighbors.

    Args:
        mesh: A :class:`repro.cubesphere.CubedSphereMesh`.
        edge_weight: Weight of edge-neighbor links (shared points).
        corner_weight: Weight of corner-neighbor links.
        vweights: Optional per-element computation weights.
    """
    edge_pairs, corner_pairs = mesh.neighbor_pairs()
    edges = np.concatenate([edge_pairs, corner_pairs], axis=0)
    ew = np.concatenate(
        [
            np.full(len(edge_pairs), edge_weight, dtype=np.int64),
            np.full(len(corner_pairs), corner_weight, dtype=np.int64),
        ]
    )
    return graph_from_edges(mesh.nelem, edges, ew, vweights)
