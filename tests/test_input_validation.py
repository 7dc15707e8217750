"""Bad arguments to the samplers raise ``ValueError`` before any Spark work."""
import pytest

from repro.baselines.distance_sampler import distance_distribution, distance_sampler_estimate
from repro.baselines.rk_sampler import rk_estimate
from repro.baselines.uniform_source import uniform_source_estimate
from repro.core.mh_joint import mh_joint
from repro.core.mh_single import mh_single
from repro.graphs import generators as gen

from .conftest import graph

# Each sampler takes (g, R, T); the single-target ones use r = R[0].
SAMPLERS = {
    "rk_estimate": lambda g, R, T: rk_estimate(None, g, R[0], T, seed=1),
    "uniform_source_estimate": lambda g, R, T: uniform_source_estimate(None, g, R[0], T, seed=1),
    "distance_sampler_estimate": lambda g, R, T: distance_sampler_estimate(None, g, R[0], T, seed=1),
    "mh_single": lambda g, R, T: mh_single(None, g, R[0], T, seed=1),
    "mh_joint": lambda g, R, T: mh_joint(None, g, R, T, seed=1),
}


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
class TestSamplerArgs:
    @pytest.mark.parametrize("r", [-1, 7])
    def test_target_out_of_range(self, sampler, r):
        with pytest.raises(ValueError, match=f"target {r} out of range"):
            SAMPLERS[sampler](graph("path7"), [r], 100)

    @pytest.mark.parametrize("T", [0, -5])
    def test_T_below_one(self, sampler, T):
        with pytest.raises(ValueError, match="T must be at least 1"):
            SAMPLERS[sampler](graph("path7"), [3], T)

    def test_single_vertex_graph(self, sampler):
        with pytest.raises(ValueError, match="at least 2"):
            SAMPLERS[sampler](gen.path_graph(1), [0], 100)


class TestJointTargets:
    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            mh_joint(None, graph("path7"), [], 100)

    def test_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            mh_joint(None, graph("path7"), [3, 3], 100)

    def test_member_out_of_range(self):
        with pytest.raises(ValueError, match="target 7 out of range"):
            mh_joint(None, graph("path7"), [3, 7], 100)


@pytest.mark.parametrize("r", [-1, 7])
def test_distance_distribution_target_out_of_range(r):
    with pytest.raises(ValueError, match=f"target {r} out of range"):
        distance_distribution(graph("path7"), r)
