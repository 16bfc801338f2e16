"""Golden oracles for the vectorized topology and quality stages.

The mesh builder, ``graph_from_edges`` and ``evaluate_partition`` are
whole-array NumPy.  The references below are the loop-based
implementations they replaced, kept verbatim in spirit: node ids from
``np.unique(axis=0)`` over corner coordinates, adjacency from a
per-node dict of shared-node counts, CSR order from ``lexsort``, and
quality metrics read off the full :class:`CommunicationPattern` (pair
dict, ``np.add.at`` volumes, per-pair message loop).  Every array must
match exactly — with the C kernels and, in a subprocess, without them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cubesphere.mesh import CubedSphereMesh
from repro.cubesphere.topology import NUM_FACES, corner_nodes_scaled
from repro.graphs.csr import graph_from_edges, mesh_graph
from repro.partition import registry
from repro.partition.metrics import (
    CommunicationPattern,
    PartitionQuality,
    communication_pattern,
    evaluate_partition,
    load_balance,
)
from repro.partition.pipeline import graph_stage

MESH_NES = list(range(1, 33)) + [48, 64]


# ----------------------------------------------------------------------
# Reference implementations
# ----------------------------------------------------------------------
def reference_nodes(ne: int) -> tuple[np.ndarray, np.ndarray]:
    """``(element_nodes, node_coords)`` by unique corner-coordinate rows."""
    nelem = 6 * ne * ne
    all_corners = np.empty((nelem, 4, 3), dtype=np.int64)
    for face in range(NUM_FACES):
        nodes = corner_nodes_scaled(face, ne)
        ix, iy = np.meshgrid(np.arange(ne), np.arange(ne), indexing="ij")
        i, j = ix.ravel(), iy.ravel()
        g = face * ne * ne + j * ne + i
        all_corners[g, 0] = nodes[i, j]
        all_corners[g, 1] = nodes[i + 1, j]
        all_corners[g, 2] = nodes[i + 1, j + 1]
        all_corners[g, 3] = nodes[i, j + 1]
    uniq, inverse = np.unique(
        all_corners.reshape(-1, 3), axis=0, return_inverse=True
    )
    return inverse.reshape(nelem, 4), uniq


def _reference_csr(nelem: int, pairs: list) -> tuple[np.ndarray, np.ndarray]:
    if pairs:
        arr = np.array(pairs, dtype=np.int64)
        both = np.concatenate([arr, arr[:, ::-1]], axis=0)
    else:
        both = np.empty((0, 2), dtype=np.int64)
    both = both[np.lexsort((both[:, 1], both[:, 0]))]
    indptr = np.searchsorted(
        both[:, 0], np.arange(nelem + 1), side="left"
    ).astype(np.int64)
    return indptr, both[:, 1].copy()


def reference_adjacency(element_nodes: np.ndarray, nnodes: int):
    """Edge and corner CSR adjacency from a per-node dict loop."""
    nelem = len(element_nodes)
    order = np.argsort(element_nodes.ravel(), kind="stable")
    elems_sorted = order // 4
    node_ids = element_nodes.ravel()[order]
    starts = np.searchsorted(node_ids, np.arange(nnodes))
    ends = np.searchsorted(node_ids, np.arange(nnodes), side="right")
    shared: dict[tuple[int, int], int] = {}
    for nid in range(nnodes):
        members = elems_sorted[starts[nid] : ends[nid]]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                ea, eb = members[a], members[b]
                key = (ea, eb) if ea < eb else (eb, ea)
                shared[key] = shared.get(key, 0) + 1
    edge_pairs = [k for k, c in shared.items() if c >= 2]
    corner_pairs = [k for k, c in shared.items() if c < 2]
    return _reference_csr(nelem, edge_pairs), _reference_csr(nelem, corner_pairs)


def reference_graph_arrays(nvertices, edges, eweights):
    """CSR arrays of an undirected edge list via ``lexsort``."""
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    w = np.concatenate([eweights, eweights])
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    indptr = np.searchsorted(src, np.arange(nvertices + 1)).astype(np.int64)
    return indptr, dst, w


def reference_communication_pattern(graph, partition) -> CommunicationPattern:
    a = partition.assignment
    nparts = partition.nparts
    src = np.repeat(np.arange(graph.nvertices), graph.degrees())
    dst = graph.indices
    w = graph.eweights
    cut = a[src] != a[dst]
    csrc, cdst, cw = src[cut], dst[cut], w[cut]
    psrc, pdst = a[csrc], a[cdst]
    send_points = np.zeros(nparts, dtype=np.int64)
    np.add.at(send_points, psrc, cw)
    keys = psrc * nparts + pdst
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, cw)
    pair_points = {
        (int(k // nparts), int(k % nparts)): int(s) for k, s in zip(uniq, sums)
    }
    message_counts = np.zeros(nparts, dtype=np.int64)
    for s, _ in pair_points:
        message_counts[s] += 1
    is_boundary = np.zeros(graph.nvertices, dtype=bool)
    is_boundary[csrc] = True
    boundary_vertices = np.bincount(a[is_boundary], minlength=nparts).astype(
        np.int64
    )
    return CommunicationPattern(
        nparts=nparts,
        send_points=send_points,
        pair_points=pair_points,
        message_counts=message_counts,
        boundary_vertices=boundary_vertices,
    )


def reference_evaluate(graph, partition) -> PartitionQuality:
    sizes = partition.part_sizes()
    weights = partition.part_weights(graph.vweights)
    comm = reference_communication_pattern(graph, partition)
    u, v, w = graph.edge_array()
    a = partition.assignment
    cutmask = a[u] != a[v]
    return PartitionQuality(
        method=partition.method,
        nparts=partition.nparts,
        lb_nelemd=load_balance(sizes),
        lb_weight=load_balance(weights),
        lb_spcv=load_balance(comm.send_points),
        edgecut=int(cutmask.sum()),
        weighted_edgecut=int(w[cutmask].sum()),
        total_volume_points=comm.total_points(),
        boundary_vertices=int(comm.boundary_vertices.sum()),
        nelemd=sizes,
        spcv=comm.send_points,
    )


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def _assert_same(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, (what, got.dtype, want.dtype)
    assert got.shape == want.shape, (what, got.shape, want.shape)
    assert np.array_equal(got, want), what


def _quality_mismatches(got: PartitionQuality, want: PartitionQuality) -> list:
    bad = []
    for name in PartitionQuality.__dataclass_fields__:
        x, y = getattr(got, name), getattr(want, name)
        if isinstance(y, np.ndarray):
            same = x.dtype == y.dtype and np.array_equal(x, y)
        else:
            same = type(x) is type(y) and x == y
        if not same:
            bad.append(name)
    return bad


def evaluate_cases():
    """``(method, ne, nparts)`` for every method at every admissible ne <= 16."""
    for spec in registry.specs():
        for ne in range(1, 17):
            nparts = min(6 * ne * ne, 7 * ne - 1)
            try:
                spec.validate(ne=ne, nparts=nparts)
            except registry.CapabilityError:
                continue
            yield spec.name, ne, nparts


def evaluate_mismatches() -> list:
    """Every case whose quality differs from the reference (empty: all equal)."""
    bad = []
    for method, ne, nparts in evaluate_cases():
        graph = graph_stage(ne)
        problem = registry.PartitionProblem(ne=ne, nparts=nparts, seed=ne)
        part = registry.get(method)(problem)
        fields = _quality_mismatches(
            evaluate_partition(graph, part), reference_evaluate(graph, part)
        )
        if fields:
            bad.append([method, ne, nparts, fields])
    return bad


@pytest.mark.parametrize("ne", MESH_NES)
def test_mesh_and_graph_match_reference(ne):
    mesh = CubedSphereMesh(ne)
    element_nodes, coords = reference_nodes(ne)
    assert mesh.nnodes == len(coords)
    _assert_same(mesh.element_nodes, element_nodes, "element_nodes")
    _assert_same(mesh._node_coords_scaled, coords, "node coords")
    (e_ptr, e_idx), (c_ptr, c_idx) = reference_adjacency(element_nodes, len(coords))
    _assert_same(mesh.edge_adjacency.indptr, e_ptr, "edge indptr")
    _assert_same(mesh.edge_adjacency.indices, e_idx, "edge indices")
    _assert_same(mesh.corner_adjacency.indptr, c_ptr, "corner indptr")
    _assert_same(mesh.corner_adjacency.indices, c_idx, "corner indices")

    graph = mesh_graph(mesh, edge_weight=8, corner_weight=1)
    edge_pairs, corner_pairs = mesh.neighbor_pairs()
    edges = np.concatenate([edge_pairs, corner_pairs])
    ew = np.concatenate(
        [np.full(len(edge_pairs), 8), np.full(len(corner_pairs), 1)]
    ).astype(np.int64)
    indptr, indices, eweights = reference_graph_arrays(mesh.nelem, edges, ew)
    _assert_same(graph.indptr, indptr, "graph indptr")
    _assert_same(graph.indices, indices, "graph indices")
    _assert_same(graph.eweights, eweights, "graph eweights")
    _assert_same(graph.vweights, np.ones(mesh.nelem, dtype=np.int64), "vweights")


def test_graph_from_edges_any_endpoint_order_matches_reference():
    rng = np.random.default_rng(7)
    n = 200
    lo = rng.integers(0, n - 1, size=600)
    hi = lo + 1 + rng.integers(0, n - 1 - lo)
    keys = np.unique(lo * n + hi)
    edges = np.stack([keys // n, keys % n], axis=1)
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]
    edges = edges[rng.permutation(len(edges))]
    ew = rng.integers(1, 9, size=len(edges)).astype(np.int64)
    graph = graph_from_edges(n, edges, ew)
    indptr, indices, eweights = reference_graph_arrays(n, edges, ew)
    _assert_same(graph.indptr, indptr, "indptr")
    _assert_same(graph.indices, indices, "indices")
    _assert_same(graph.eweights, eweights, "eweights")


@pytest.mark.parametrize("method", ["sfc", "kway", "random"])
@pytest.mark.parametrize("ne,nparts", [(4, 1), (4, 7), (8, 96), (16, 1536)])
def test_communication_pattern_matches_reference(method, ne, nparts):
    graph = graph_stage(ne)
    part = registry.get(method)(registry.PartitionProblem(ne, nparts, seed=3))
    got = communication_pattern(graph, part)
    want = reference_communication_pattern(graph, part)
    assert got.nparts == want.nparts
    assert got.pair_points == want.pair_points
    assert list(got.pair_points) == list(want.pair_points)
    _assert_same(got.send_points, want.send_points, "send_points")
    _assert_same(got.message_counts, want.message_counts, "message_counts")
    _assert_same(got.boundary_vertices, want.boundary_vertices, "boundary")


def test_evaluate_matches_reference():
    assert len(list(evaluate_cases())) > 60
    assert evaluate_mismatches() == []


def test_evaluate_matches_reference_without_ckernels():
    script = (
        "import json, runpy, sys\n"
        "from repro import _native\n"
        "assert _native.LIB is None\n"
        f"ns = runpy.run_path({str(Path(__file__))!r})\n"
        "print(json.dumps(ns['evaluate_mismatches']()))\n"
    )
    env = dict(os.environ)
    env["REPRO_NO_CKERNELS"] = "1"
    src = str(Path(registry.__file__).resolve().parents[2])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, check=True,
    )
    assert json.loads(proc.stdout) == []
