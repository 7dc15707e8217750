"""The spark-submit job entrypoint builds and prints its tables at test scale."""
import importlib.util
from pathlib import Path

import pytest

from repro.evalharness import tables

JOB = Path(__file__).resolve().parent.parent / "jobs" / "run_table.py"


def _load():
    # jobs/ is not a package; load by path (as spark-submit would).
    spec = importlib.util.spec_from_file_location("run_table", JOB)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


run_table = _load()


@pytest.mark.parametrize(
    "job,min_rows",
    [
        ("table1_datasets", 8),
        ("table2_mu", 10),
        ("table4_epsdelta", 2),
        ("table7_runtime", 2),
    ],
)
def test_job_builds_table(spark, job, min_rows):
    df = run_table.build(spark, int(job[len("table")]), "test")
    assert len(df) >= min_rows


def test_table3_job(spark):
    df = run_table.build(spark, 3, "test")
    assert {"mu", "T", "mean_est", "mae_vs_nbc"} <= set(df.columns)
    assert len(df) > 10


def test_table5_job(spark):
    df = run_table.build(spark, 5, "test")
    assert df["method"].nunique() == 4


def test_table6_job(spark):
    df = run_table.build(spark, 6, "test")
    assert {"exact_ratio", "est_ratio", "exact_rel_star"} <= set(df.columns)
    assert len(df) > 0


def test_cli_prints_table_under_its_title(spark, capsys):
    run_table.main(["--table", "4", "--scale", "test"])
    out = capsys.readouterr().out
    assert out.startswith("== T4 — (eps,delta) guarantee coverage ==\n")
    assert out == tables.render(run_table.build(spark, 4, "test"), run_table.TITLES[4]) + "\n"
    with pytest.raises(SystemExit):
        run_table.main(["--table", "8"])
    # main() leaves a session it did not start running.
    assert spark.range(3).count() == 3
