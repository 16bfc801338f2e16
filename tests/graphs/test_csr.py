"""Unit tests for the CSR graph structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs.csr import CSRGraph, graph_from_edges, mesh_graph

TRIANGLE = np.array([(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_triangle(self):
        g = graph_from_edges(3, TRIANGLE)
        assert g.nvertices == 3
        assert g.nedges == 3
        assert sorted(g.neighbors(0).tolist()) == [1, 2]
        g.validate()

    def test_weights(self):
        g = graph_from_edges(3, TRIANGLE, eweights=[5, 7, 9], vweights=[1, 2, 3])
        assert g.total_vweight() == 6
        # Edge (0,1) has weight 5 from both sides.
        i = list(g.neighbors(0)).index(1)
        assert g.neighbor_weights(0)[i] == 5
        j = list(g.neighbors(1)).index(0)
        assert g.neighbor_weights(1)[j] == 5

    def test_isolated_vertices_allowed(self):
        g = graph_from_edges(5, np.array([(0, 1)]))
        assert g.degrees().tolist() == [1, 1, 0, 0, 0]
        g.validate()

    def test_empty_graph(self):
        g = graph_from_edges(3, np.empty((0, 2)))
        assert g.nedges == 0
        g.validate()

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loops"):
            graph_from_edges(3, np.array([(1, 1)]))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            graph_from_edges(3, np.array([(0, 1), (1, 0)]))

    def test_out_of_range_endpoint_rejected(self):
        # (0, 5) and (1, 2) would share the key lo * n + hi = 5.
        for edges in ([(0, 5), (1, 2)], [(-1, 2)]):
            with pytest.raises(ValueError, match="out of range"):
                graph_from_edges(3, np.array(edges))

    def test_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="eweights"):
            graph_from_edges(3, TRIANGLE, eweights=[1])
        with pytest.raises(ValueError, match="vweights"):
            graph_from_edges(3, TRIANGLE, vweights=[1])


class TestValidation:
    def test_asymmetric_adjacency_detected(self):
        g = CSRGraph(
            indptr=np.array([0, 1, 1]),
            indices=np.array([1]),
            eweights=np.array([1]),
            vweights=np.ones(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="symmetric"):
            g.validate()

    def test_out_of_range_index_detected(self):
        g = CSRGraph(
            indptr=np.array([0, 1, 2]),
            indices=np.array([5, 0]),
            eweights=np.array([1, 1]),
            vweights=np.ones(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="out of range"):
            g.validate()


class TestDerived:
    def test_edge_array_lists_each_edge_once(self):
        g = graph_from_edges(4, np.array([(0, 1), (1, 2), (2, 3)]), eweights=[3, 4, 5])
        u, v, w = g.edge_array()
        assert (u < v).all()
        assert sorted(zip(u.tolist(), v.tolist(), w.tolist())) == [
            (0, 1, 3), (1, 2, 4), (2, 3, 5),
        ]

    def test_adjacency_matrix_matches_networkx(self, graph4):
        import networkx as nx

        a = graph4.adjacency_matrix()
        u, v, w = graph4.edge_array()
        gx = nx.Graph()
        gx.add_nodes_from(range(graph4.nvertices))
        gx.add_weighted_edges_from(zip(u.tolist(), v.tolist(), w.tolist()))
        b = nx.to_scipy_sparse_array(gx, nodelist=range(graph4.nvertices))
        assert abs(a - b).max() == 0

    def test_subgraph(self):
        g = graph_from_edges(5, np.array([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
        sub, mapping = g.subgraph(np.array([0, 1, 4]))
        assert sub.nvertices == 3
        assert sub.nedges == 2  # (0,1) and (0,4)
        sub.validate()
        np.testing.assert_array_equal(mapping, [0, 1, 4])

    def test_subgraph_preserves_weights(self):
        g = graph_from_edges(
            4, np.array([(0, 1), (2, 3)]), eweights=[7, 9], vweights=[1, 2, 3, 4]
        )
        sub, _ = g.subgraph(np.array([2, 3]))
        assert sub.vweights.tolist() == [3, 4]
        assert sub.neighbor_weights(0).tolist() == [9]


class TestMeshGraph:
    def test_weights_encode_boundary_points(self, mesh4):
        g = mesh_graph(mesh4, edge_weight=8, corner_weight=1)
        g.validate()
        assert set(np.unique(g.eweights).tolist()) == {1, 8}

    def test_vertex_count(self, mesh4):
        g = mesh_graph(mesh4)
        assert g.nvertices == mesh4.nelem

    def test_custom_vweights(self, mesh4):
        w = np.arange(mesh4.nelem) + 1
        g = mesh_graph(mesh4, vweights=w)
        assert g.total_vweight() == w.sum()

    def test_degree_bounds(self, graph4):
        deg = graph4.degrees()
        assert deg.min() == 7 and deg.max() == 8
