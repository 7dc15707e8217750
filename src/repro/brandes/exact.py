"""Exact betweenness via Spark-distributed Brandes passes.

The exact baseline of every table. Each call is one Spark job: the
sources are cut into ``defaultParallelism`` contiguous chunks, each task
sweeps its chunk with the batched kernel
:func:`~repro.bfs.local.dependency_block` against a broadcast CSR, and
the driver reduces the collected results in chunk order, so the result
is identical from run to run at a given ``defaultParallelism``. This is
the O(nm) computation the paper's samplers undercut.
"""
from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..bfs.local import block_size, dependency_block
from ..graphs.csr import CSRGraph


def _map_chunks(
    spark: SparkSession,
    g: CSRGraph,
    sources: np.ndarray,
    fold: Callable[[Iterator[np.ndarray]], np.ndarray],
    label: str,
) -> list[np.ndarray]:
    """Run one Spark job over contiguous chunks of ``sources``.

    Task ``i`` returns ``fold`` of the :func:`dependency_block` outputs of
    chunk ``i``, one block of :func:`block_size` sources at a time, and the
    results come back in chunk order. There are ``defaultParallelism``
    tasks, never more than sources. The job carries ``label`` as its Spark
    job description; the CSR broadcast is destroyed once it returns.
    """
    sc = spark.sparkContext
    chunks = np.array_split(sources, max(1, min(sc.defaultParallelism, len(sources))))
    bg = sc.broadcast(g)

    def task(chunk: np.ndarray) -> np.ndarray:
        graph = bg.value
        step = block_size(graph)
        return fold(
            dependency_block(graph, chunk[i : i + step])
            for i in range(0, len(chunk), step)
        )

    previous = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    try:
        return sc.parallelize(chunks, len(chunks)).map(task).collect()
    finally:
        sc.setJobDescription(previous)
        bg.destroy()


def betweenness_vector(spark: SparkSession, g: CSRGraph) -> np.ndarray:
    """Exact ``BC`` as a dense NumPy vector indexed by vertex id.

    Ordered-pair convention (matches :mod:`repro.brandes.reference`).
    Each task sums the dependency vectors of its sources, so the driver
    collects O(tasks · n) floats, not O(n²).
    """
    n = g.n

    def fold(blocks: Iterator[np.ndarray]) -> np.ndarray:
        return sum((block.sum(axis=0) for block in blocks), np.zeros(n))

    parts = _map_chunks(
        spark, g, np.arange(n, dtype=np.int64), fold, "brandes.betweenness_vector"
    )
    return sum(parts, np.zeros(n))


def betweenness_all(spark: SparkSession, g: CSRGraph) -> DataFrame:
    """Exact ``BC(v)`` for every vertex: DataFrame ``id, bc``."""
    bc = betweenness_vector(spark, g)
    return spark.createDataFrame(
        pd.DataFrame({"id": np.arange(g.n, dtype=np.int64), "bc": bc})
    )


def _vertex_ids(g: CSRGraph, ids: Sequence[int], what: str) -> np.ndarray:
    """Sorted distinct vertex ids; ``ValueError`` if any is outside ``[0, n)``."""
    out = np.asarray(sorted(set(int(v) for v in ids)), dtype=np.int64)
    if len(out) and (out[0] < 0 or out[-1] >= g.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise ValueError(f"{what} {int(bad)} out of range [0, {g.n})")
    return out


def dependency_matrix(
    spark: SparkSession,
    g: CSRGraph,
    targets: Sequence[int],
    *,
    sources: Sequence[int] | None = None,
) -> pd.DataFrame:
    """``δ_s•(r)`` for every source ``s`` and every ``r ∈ targets``.

    ``sources`` defaults to all of ``V`` (ground truth mode); the samplers
    pass only their *distinct proposal* vertices — the embarrassingly
    parallel phase of the MH algorithms. Returns a pandas frame
    ``s, r, delta`` sorted by ``r`` then ``s``. One Brandes pass per source
    yields the dependency on *all* targets at once — the same trick the
    joint-space sampler relies on. Ground truth for ``P_r[·]`` (Eq. 5),
    ``μ(r)``, the bias envelope, and all exact relative-betweenness
    quantities. Raises ``ValueError`` if ``targets`` is empty or a target
    or source is not a vertex of ``g``.
    """
    tg = _vertex_ids(g, targets, "target")
    if not len(tg):
        raise ValueError("targets must not be empty")
    if sources is None:
        src = np.arange(g.n, dtype=np.int64)
    else:
        src = _vertex_ids(g, sources, "source")

    def fold(blocks: Iterator[np.ndarray]) -> np.ndarray:
        return np.concatenate([block[:, tg] for block in blocks] + [np.empty((0, len(tg)))])

    delta = np.concatenate(_map_chunks(spark, g, src, fold, "brandes.dependency_matrix"))
    return pd.DataFrame(
        {
            "s": np.tile(src, len(tg)),
            "r": np.repeat(tg, len(src)),
            "delta": delta.T.ravel(),
        }
    )


def betweenness_of(spark: SparkSession, g: CSRGraph, r: int) -> float:
    """Exact ``BC(r)`` = Σ_s δ_s•(r) (distributed over sources)."""
    dm = dependency_matrix(spark, g, [r])
    return float(dm["delta"].sum())


def normalized_bc(bc: float, n: int) -> float:
    """``nbc(r) = BC(r) / (n(n−1))`` — the [0,1]-scale estimand of
    Theorem 1 (see DESIGN.md faithfulness notes)."""
    return bc / (n * (n - 1))
