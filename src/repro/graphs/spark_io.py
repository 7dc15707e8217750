"""Spark DataFrame representation of graphs.

Canonical schemas:

* **undirected edge table** — one row per edge, ``src < dst`` (what the
  generators emit, what the DuckDB oracle sees);
* **symmetric edge table** — both directions materialised, the form the
  DataFrame BFS and dependency kernels join against.

Both helpers are pure DataFrame/Catalyst operations so their results can be
cross-checked with :func:`repro.oracle.assert_equivalent`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from .csr import CSRGraph


def edges_spark(spark: SparkSession, g: CSRGraph) -> DataFrame:
    """Undirected canonical edge table (``src < dst``) of ``g``."""
    pdf = g.edge_pandas()
    return spark.createDataFrame(pdf.astype({"src": "int64", "dst": "int64"}))


def symmetric_edges(edges: DataFrame) -> DataFrame:
    """Both directions of every undirected edge: columns ``src``, ``dst``."""
    return edges.select("src", "dst").unionAll(
        edges.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    )
