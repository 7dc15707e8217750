"""Spark edge-table helpers."""
import pandas as pd
from pyspark.sql import functions as F

from repro.graphs.spark_io import edges_spark, symmetric_edges

from .conftest import graph


class TestEdgesSpark:
    def test_edge_count_matches_m(self, spark):
        g = graph("er30")
        assert edges_spark(spark, g).count() == g.m

    def test_canonical_orientation(self, spark):
        e = edges_spark(spark, graph("grid3x4"))
        assert e.where(F.col("src") >= F.col("dst")).count() == 0

    def test_symmetric_doubles_rows(self, spark):
        g = graph("ba30")
        e = edges_spark(spark, g)
        assert symmetric_edges(e).count() == 2 * g.m

    def test_symmetric_no_self_loops(self, spark):
        e = edges_spark(spark, graph("cycle9"))
        assert symmetric_edges(e).where("src = dst").count() == 0


class TestDegreesOracle:
    def test_symmetry_relation_oracle(self, spark):
        # Every (src, dst) in the symmetric table has its reverse.
        g = graph("grid3x4")
        sym = symmetric_edges(edges_spark(spark, g))
        missing = (
            sym.alias("a")
            .join(
                sym.alias("b"),
                (F.col("a.src") == F.col("b.dst")) & (F.col("a.dst") == F.col("b.src")),
                "left_anti",
            )
            .count()
        )
        assert missing == 0


class TestRoundTrip:
    def test_spark_roundtrip_preserves_edges(self, spark):
        g = graph("twocomm10")
        pdf = (
            edges_spark(spark, g)
            .toPandas()
            .sort_values(["src", "dst"])
            .reset_index(drop=True)
        )
        expect = g.edge_pandas()
        pd.testing.assert_frame_equal(
            pdf.astype("int64"), expect.astype("int64")
        )
