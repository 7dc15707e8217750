"""Harness + table builders produce well-formed rows at test scale."""
import functools

import numpy as np
import pytest

from repro.brandes import exact
from repro.evalharness import runner, tables
from repro.graphs import generators as gen

from .conftest import dep_column, graph


@pytest.fixture(scope="module")
def small_barbell():
    return gen.barbell(8)


class TestRunnerPieces:
    def test_dependency_column(self, spark):
        # Column j of the exact table is the dependency column δ_•(R[j]).
        key, R = "er30", [7, 0, 29, 12]
        table = runner.exact_table(spark, graph(key), R)
        assert table.shape == (30, len(R))
        for j, r in enumerate(R):
            assert np.allclose(table[:, j], dep_column(key, r))

    @pytest.mark.parametrize("path", ["driver", "spark"])
    def test_exact_table_columns_are_single_target_tables(self, spark, request, path):
        if path == "spark":
            request.getfixturevalue("on_spark")
        g = gen.barabasi_albert(200, 3, seed=1)
        R = [5, 0, 17, 3]
        table = runner.exact_table(spark, g, R)
        for j, r in enumerate(R):
            assert np.array_equal(table[:, j], runner.exact_table(spark, g, [r])[:, 0])

    @pytest.mark.parametrize(
        "R,match",
        [([8, 8, 0], "duplicate"), ([0, 17], "out of range"), ([], "empty")],
        ids=["duplicate", "out-of-range", "empty"],
    )
    def test_exact_table_rejects_bad_targets(self, spark, small_barbell, R, match):
        with pytest.raises(ValueError, match=match):
            runner.exact_table(spark, small_barbell, R)

    def test_dataset_row_fields(self, spark, small_barbell):
        row = runner.dataset_row(spark, small_barbell, diam_sources=8)
        assert row["n"] == 17 and row["m"] == small_barbell.m
        assert row["diameter>="] >= 3 and row["exact_bc_secs"] > 0

    def test_mu_row_separator(self, spark, small_barbell):
        (row,) = runner.mu_rows(spark, small_barbell, [(8, "separator")])
        assert row["mu"] == pytest.approx(17 / 16, abs=1e-3)
        assert row["eq14_T(eps=.05,delta=.1)"] > 0

    def test_single_accuracy_rows(self, spark, small_barbell):
        rows = runner.single_accuracy_rows(
            spark, small_barbell, [(8, "separator")], [200, 800], n_chains=4
        )
        assert len(rows) == 2
        for row in rows:
            assert row["nbc_exact"] > 0
            assert 1.0 - 0.2 <= row["bias_factor"] <= row["mu"] + 0.2

    def test_coverage_row_meets_delta(self, spark, small_barbell):
        row = runner.coverage_row(
            spark, small_barbell, 8, "separator", n_chains=15
        )
        # Theorem 1 regime (μ≈1): empirical failure must respect δ.
        assert row["fail_rate_vs_limit"] <= row["delta"]
        assert row["eq14_T"] > 0

    def test_baseline_rows_all_methods(self, spark, small_barbell):
        rows = runner.baseline_rows(
            spark, small_barbell, [(8, "separator")], 150, n_reps=3
        )
        assert {r["method"] for r in rows} == {
            "mh (this paper)",
            "uniform-source [2]",
            "distance [13]",
            "rk paths [30]",
        }

    def test_joint_rows(self, spark, small_barbell):
        rows = runner.joint_rows(
            spark, small_barbell, [8, 7, 0], [400], n_chains=3
        )
        assert rows, "no pairs produced"
        for row in rows:
            assert row["exact_ratio"] > 0
            assert np.isfinite(row["est_ratio"])

    def test_joint_rows_rejects_duplicate_targets(self, spark, small_barbell, monkeypatch):
        # A duplicate target would leave a column of the exact table
        # unwritten, so it is refused before any sweep.
        def no_sweep(*args):
            raise AssertionError("swept before the targets were checked")

        monkeypatch.setattr(exact, "map_blocks", no_sweep)
        with pytest.raises(ValueError, match="duplicate"):
            runner.joint_rows(spark, small_barbell, [8, 8, 0], [400], n_chains=3)

    def test_runtime_row(self, spark):
        row = runner.runtime_row(spark, gen.barabasi_albert(80, 2, seed=1), 60)
        assert row["mh_secs"] > 0 and row["exact_secs"] > 0
        assert row["distinct_scored"] <= 80


class TestTableBuilders:
    def test_bench_suite_sizes(self):
        for g in tables.bench_suite("test"):
            assert g.n <= 200
        names = [g.name.split("-")[0] for g in tables.bench_suite("bench")]
        assert "ba" in names and "barbell" in names

    def test_roles_for_labels(self, spark):
        roles = tables.roles_for(spark, graph("barbell5"))
        kinds = {role for _, role in roles}
        assert "separator" in kinds

    def test_roles_for_nonseparator_graph(self, spark):
        roles = tables.roles_for(spark, graph("er30"))
        kinds = {role for _, role in roles}
        assert "max-bc" in kinds

    @pytest.mark.parametrize(
        "make",
        [lambda: gen.grid_2d(30, 30), lambda: gen.two_communities(400, p_in=0.02, seed=4)],
        ids=["grid-30x30", "2comm-400"],
    )
    def test_roles_for_stable_between_runs(self, spark, make):
        g = make()
        assert tables.roles_for(spark, g) == tables.roles_for(spark, g)

    def test_table1_test_scale(self, spark):
        df = tables.table1(spark, "test")
        assert len(df) == len(tables.bench_suite("test"))
        assert {"graph", "n", "m", "exact_bc_secs"} <= set(df.columns)

    def test_bench_table7_runs_on_spark(self, spark, monkeypatch):
        # T7 times the distributed path: every exact call it makes at bench
        # scale, warm-up row included, is above exact.LOCAL_WORK. The kernel
        # and the job are faked, since only the path taken is checked.
        jobs = []
        fake = functools.partial(exact.map_blocks, sweep=lambda g, s: np.zeros((len(s), g.n)))
        monkeypatch.setattr(exact, "map_blocks", fake)
        monkeypatch.setattr(
            exact,
            "map_chunks",
            lambda spark, g, chunks, task, label, work: jobs.append(
                (label, work > exact.LOCAL_WORK)
            )
            or [task(g, c) for c in chunks],
        )
        tables.table7(spark, "bench")
        assert jobs == [
            ("brandes.betweenness_vector", True), ("brandes.dependency_matrix", True)
        ] * 5

    @pytest.mark.parametrize(
        "table,n_bc", [(tables.table2, 2), (tables.table3, 8)], ids=["T2", "T3"]
    )
    def test_one_exact_table_per_graph(self, spark, monkeypatch, table, n_bc):
        # All of a graph's probes share one dependency_matrix sweep; BC is
        # swept only where the probes are picked from it (T2's BA graphs,
        # every T3 graph through roles_for).
        calls = []
        map_blocks = exact.map_blocks

        def spy(spark, g, sources, fold, label, sweep=exact.dependency_block):
            calls.append((label, g.name))
            return map_blocks(spark, g, sources, fold, label, sweep)

        monkeypatch.setattr(exact, "map_blocks", spy)
        df = table(spark, "test")
        swept = [name for label, name in calls if label == "brandes.dependency_matrix"]
        assert sorted(swept) == sorted(set(df["graph"]))
        assert len(calls) == len(swept) + n_bc

    def test_render(self, spark):
        import pandas as pd

        out = tables.render(pd.DataFrame([{"a": 1}]), "T0")
        assert "T0" in out and "a" in out


class TestStableOrder:
    """Probe and target picks: BC descending, ties to the lower id, after
    rounding, so float summation noise cannot change them."""

    BC = np.array([0.0, 3.0, 5.0, 3.0, 5.0, 1.0, 3.0])

    def nudged(self) -> np.ndarray:
        """``BC`` with some tied entries moved by one ulp either way."""
        bc = self.BC.copy()
        bc[[4, 6]] = np.nextafter(bc[[4, 6]], np.inf)
        bc[3] = np.nextafter(bc[3], 0)
        return bc

    def test_ties_go_to_lower_id(self):
        assert tables.stable_order(self.BC).tolist() == [2, 4, 1, 3, 6, 5, 0]

    def test_last_ulp_does_not_reorder(self):
        assert np.array_equal(tables.stable_order(self.nudged()), tables.stable_order(self.BC))

    def test_all_zero(self):
        assert tables.stable_order(np.zeros(3)).tolist() == [0, 1, 2]

    def test_roles_for_same_picks(self, monkeypatch):
        picks = []
        for bc in (self.BC, self.nudged()):
            monkeypatch.setattr(tables, "betweenness_vector", lambda spark, g, bc=bc: bc)
            picks.append(tables.roles_for(None, graph("path7")))
        assert picks == [[(2, "max-bc"), (1, "mid-bc")]] * 2
