"""Unit tests for the CSR substrate (`repro.graphs.csr`)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph, from_edges, is_connected, largest_component

from .conftest import SMALL_GRAPHS, graph


def _edges(pairs):
    return pd.DataFrame(pairs, columns=["src", "dst"])


class TestFromEdges:
    def test_triangle(self):
        g = from_edges(3, _edges([(0, 1), (1, 2), (0, 2)]))
        assert g.n == 3 and g.m == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            from_edges(3, _edges([(0, 0), (1, 2)]))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate"):
            from_edges(3, _edges([(0, 1), (1, 0)]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, _edges([(0, 5)]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="out of range"):
            from_edges(3, _edges([(-1, 2)]))

    def test_neighbors_sorted_and_symmetric(self):
        g = from_edges(4, _edges([(2, 0), (3, 1), (0, 3), (1, 2)]))
        for v in range(4):
            nb = g.neighbors(v)
            assert list(nb) == sorted(nb)
            for w in nb:
                assert v in g.neighbors(int(w))

    def test_degree_sum_is_twice_m(self):
        g = graph("er30")
        assert int(g.degrees().sum()) == 2 * g.m


class TestEdgePandas:
    @pytest.mark.parametrize("key", sorted(SMALL_GRAPHS))
    def test_roundtrip(self, key):
        g = graph(key)
        e = g.edge_pandas()
        g2 = from_edges(g.n, e)
        assert np.array_equal(g.indptr, g2.indptr)
        assert np.array_equal(g.indices, g2.indices)

    def test_canonical_orientation(self):
        e = graph("grid3x4").edge_pandas()
        assert (e["src"] < e["dst"]).all()

    def test_row_count_is_m(self, any_graph):
        assert len(any_graph.edge_pandas()) == any_graph.m


class TestConnectivity:
    def test_suite_graphs_connected(self, any_graph):
        assert is_connected(any_graph)

    def test_disconnected_detected(self):
        g = from_edges(4, _edges([(0, 1), (2, 3)]))
        assert not is_connected(g)

    def test_largest_component_extracts(self):
        # Components {0,1,2} (triangle) and {3,4}.
        g = from_edges(5, _edges([(0, 1), (1, 2), (0, 2), (3, 4)]))
        lc = largest_component(g)
        assert lc.n == 3 and lc.m == 3 and is_connected(lc)

    def test_largest_component_identity_when_connected(self):
        g = graph("cycle9")
        lc = largest_component(g)
        assert lc.n == g.n and lc.m == g.m

    def test_largest_component_relabels_contiguously(self):
        g = from_edges(6, _edges([(1, 3), (3, 5), (0, 2)]))
        lc = largest_component(g)
        assert lc.n == 3
        e = lc.edge_pandas()
        assert set(e["src"]) | set(e["dst"]) <= {0, 1, 2}

    def test_single_vertex_graph(self):
        g = from_edges(1, _edges([]))
        assert is_connected(g) and g.m == 0


class TestDataclass:
    def test_m_property(self):
        assert graph("complete6").m == 15

    def test_name_not_in_equality(self):
        g = graph("path7")
        h = CSRGraph(g.n, g.indptr, g.indices, name="other")
        assert h.name == "other" and h.m == g.m
