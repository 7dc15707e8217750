"""spark-submit entrypoint for the seven tables (see DESIGN.md table index).

``build(spark, table, scale)`` returns table ``table``'s DataFrame
(importable from tests); ``main()`` picks the table with ``--table``,
prints it rendered under its title, and stops the session only if it
started it. Run as e.g.::

    spark-submit jobs/run_table.py --table 3 --scale bench
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession

from repro.evalharness import tables

TITLES = {
    1: "T1 — dataset summary",
    2: "T2 — mu(r) across families (Theorem 2)",
    3: "T3 — single-space sampler accuracy",
    4: "T4 — (eps,delta) guarantee coverage",
    5: "T5 — baseline comparison",
    6: "T6 — joint-space sampler",
    7: "T7 — runtime scaling",
}


def build(spark: SparkSession, table: int, scale: str = "bench"):
    """Table ``table``'s DataFrame at ``scale``."""
    return getattr(tables, f"table{table}")(spark, scale)


def main(argv: list[str] | None = None) -> None:
    """Parse ``--table`` and ``--scale``, build, print, stop."""
    ap = argparse.ArgumentParser(description="Build and print one evaluation table.")
    ap.add_argument("--table", type=int, choices=sorted(TITLES), required=True)
    ap.add_argument("--scale", choices=["test", "bench"], default="bench")
    args = ap.parse_args(argv)
    spark = SparkSession.getActiveSession()
    owned = spark is None
    if owned:
        # Post-launch configs matching the conftest fixture's session.
        spark = (
            SparkSession.builder.appName(f"repro-table{args.table}")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
    try:
        print(tables.render(build(spark, args.table, args.scale), TITLES[args.table]))
    finally:
        if owned:
            spark.stop()


if __name__ == "__main__":
    main()
