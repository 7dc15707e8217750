"""Self-tests of the benchmark's helpers (no Spark session needed).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import numpy as np
import pytest

from metrics import Tally, tail
from spans import Span, Tracer, self_time
from workloads import probes, serial_bc, spread_probes, stable_order

from repro.bfs.local import dependency_vector
from repro.graphs import generators as gen


class TestTail:
    def test_index_leaves_ten_ops_beyond(self):
        xs = [float(i) for i in range(100)]
        t = tail(xs)
        assert t.value == 89.0 and t.beyond == 10 and t.n_ops == 100
        assert t.percentile == pytest.approx(100 * 89 / 99)

    def test_order_of_input_is_irrelevant(self):
        xs = list(np.random.default_rng(0).permutation(50).astype(float))
        assert tail(xs).value == 39.0

    def test_smallest_run_with_a_tail_at_the_median(self):
        t = tail([float(i) for i in range(21)])
        assert t.value == 10.0 and t.percentile == 50.0 and t.beyond == 10

    def test_short_run_falls_back_to_the_median(self):
        t = tail([1.0, 2.0, 3.0, 4.0])
        assert t.value == 2.5 and t.percentile == 50.0 and t.beyond == 2

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestTally:
    def test_counts_each_failing_op_once(self):
        t = Tally()
        t.record("op-0", [])
        t.record("op-1", ["gate a", "gate b"])
        t.record("op-2", ["raised: boom"])
        t.record("op-3", [])
        assert t.attempted == 4 and t.failed == 2
        assert t.failed_frac == 0.5
        assert t.failures["op-1"] == ["gate a", "gate b"]

    def test_nothing_attempted(self):
        assert Tally().failed_frac == 0.0


class TestSelfTime:
    def spans(self):
        # op [0, 10] with children [1, 3], [2, 5] (overlapping) and [6, 7];
        # the grandchild [1.5, 2] must not be subtracted from the op.
        return [
            Span("op", 0.0, 10.0, None, 0),
            Span("a", 1.0, 3.0, 0, 0),
            Span("b", 2.0, 5.0, 0, 0),
            Span("c", 6.0, 7.0, 0, 0),
            Span("d", 1.5, 2.0, 1, 0),
        ]

    def test_overlapping_children_are_merged(self):
        assert self_time(self.spans(), 0) == pytest.approx(10.0 - 4.0 - 1.0)

    def test_grandchildren_count_against_their_parent_only(self):
        assert self_time(self.spans(), 1) == pytest.approx(2.0 - 0.5)

    def test_leaf(self):
        assert self_time(self.spans(), 3) == pytest.approx(1.0)

    def test_tracer_nests_and_never_goes_negative(self):
        tr = Tracer()
        work = tr.wrap(lambda x: sum(range(x)), "child")
        tr.op = 0
        root = tr.begin("op")
        work(1000)
        work(1000)
        tr.end(root)
        assert [s.parent for s in tr.spans] == [None, 0, 0]
        assert self_time(tr.spans, 0) >= 0.0
        assert tr.totals()["child", 0] <= tr.spans[0].dur
        assert tr.calls == []  # only Brandes calls keep their graph and sources

    def test_install_restores_originals(self):
        from repro.core import mh_single

        orig = mh_single.run_chain
        restore = Tracer().install()
        assert mh_single.run_chain is not orig
        restore()
        assert mh_single.run_chain is orig


class TestProbes:
    def test_ties_go_to_the_lower_id(self):
        bc = np.array([1.0, 3.0, 3.0, 2.0])
        assert probes(bc, 3) == [1, 2, 3]

    def test_rounding_absorbs_summation_noise(self):
        bc = np.array([5.0, 7.0, 7.0 + 1e-12, 1.0])
        assert probes(bc, 2) == [1, 2]

    def test_spread_probes_are_high_middle_low(self):
        bc = np.array([4.0, 0.0, 2.0, 3.0, 1.0])
        assert spread_probes(bc) == [0, 2, 1]
        assert list(stable_order(bc)) == [0, 3, 2, 4, 1]

    def test_probes_built_twice_agree(self):
        # A grid has many exactly tied BC values; two sweeps that sum the
        # sources in different orders must still pick the same probes.
        g = gen.grid_2d(7, 7)
        forward = serial_bc(g)
        backward = np.zeros(g.n)
        for s in reversed(range(g.n)):
            backward += dependency_vector(g, s)
        assert probes(forward, 3) == probes(backward, 3)
        assert spread_probes(forward) == spread_probes(backward)
