"""DuckDB recursive-CTE oracles for shortest-path quantities.

These tests validate the CSR BFS kernel against an *independent engine*:
a recursive SQL CTE in DuckDB computes hop distances and shortest-path
counts on small graphs, and the kernel's ``dist`` / ``σ`` must equal every
row it returns.
"""
import duckdb
import pandas as pd
import pytest

from repro.bfs.local import bfs_sigma

from .conftest import graph

# Distances via iterative relaxation in SQL; sigma via path counting at
# the minimal distance. ``maxd`` bounds the recursion (diameter cap).
_DIST_SQL = """
WITH RECURSIVE walk(id, dist) AS (
  SELECT {src}::BIGINT AS id, 0 AS dist
  UNION ALL
  SELECT e.dst, w.dist + 1
  FROM walk w JOIN sym e ON e.src = w.id
  WHERE w.dist < {maxd}
)
SELECT id, min(dist)::INT AS dist FROM walk GROUP BY id
"""

_SIGMA_SQL = """
WITH RECURSIVE walk(id, dist) AS (
  SELECT {src}::BIGINT AS id, 0 AS dist
  UNION ALL
  SELECT e.dst, w.dist + 1 FROM walk w JOIN sym e ON e.src = w.id
  WHERE w.dist < {maxd}
),
dmin AS (SELECT id, min(dist) AS dist FROM walk GROUP BY id),
paths AS (
  SELECT id, dist, count(*)::DOUBLE AS cnt FROM walk GROUP BY id, dist
)
SELECT p.id, d.dist::INT AS dist, p.cnt AS sigma
FROM paths p JOIN dmin d ON p.id = d.id AND p.dist = d.dist
"""


def _ecc(g, src):
    d, _ = bfs_sigma(g, src)
    return int(d.max())


def _sym_pdf(g):
    e = g.edge_pandas()
    rev = e.rename(columns={"src": "dst", "dst": "src"})
    return pd.concat([e, rev], ignore_index=True)[["src", "dst"]]


@pytest.mark.parametrize("key,src", [("path7", 0), ("grid3x4", 0), ("roc3x4", 5), ("cycle9", 2)])
class TestDistanceOracle:
    def test_csr_bfs_vs_duckdb(self, key, src):
        g = graph(key)
        con = duckdb.connect()
        con.register("sym", _sym_pdf(g))
        expect = con.execute(_DIST_SQL.format(src=src, maxd=_ecc(g, src))).fetchdf()
        con.close()
        dist, _ = bfs_sigma(g, src)
        for row in expect.itertuples(index=False):
            assert dist[int(row.id)] == int(row.dist)


@pytest.mark.parametrize("key,src", [("grid3x4", 0), ("cycle9", 0), ("roc3x4", 1)])
class TestSigmaOracle:
    def test_csr_sigma_vs_duckdb(self, key, src):
        g = graph(key)
        con = duckdb.connect()
        con.register("sym", _sym_pdf(g))
        expect = con.execute(_SIGMA_SQL.format(src=src, maxd=_ecc(g, src))).fetchdf()
        con.close()
        _, sigma = bfs_sigma(g, src)
        for row in expect.itertuples(index=False):
            assert sigma[int(row.id)] == row.sigma
