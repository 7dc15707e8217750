"""Graph properties (diameter)."""
import pytest

from repro.graphs import generators as gen
from repro.graphs.properties import diameter


class TestDiameter:
    @pytest.mark.parametrize(
        "g,expect",
        [
            (gen.path_graph(9), 8),
            (gen.cycle_graph(10), 5),
            (gen.star_graph(12), 2),
            (gen.complete_graph(6), 1),
            (gen.grid_2d(3, 4), 5),
            (gen.barbell(4), 4),
        ],
        ids=["path", "cycle", "star", "complete", "grid", "barbell"],
    )
    def test_exact(self, g, expect):
        assert diameter(g) == expect

    def test_sampled_lower_bound(self):
        g = gen.random_tree(80, seed=1)
        full = diameter(g)
        sampled = diameter(g, sources=10, seed=0)
        assert sampled <= full

    def test_sampled_deterministic(self):
        g = gen.erdos_renyi(60, 0.08, seed=2)
        assert diameter(g, sources=8, seed=5) == diameter(g, sources=8, seed=5)
