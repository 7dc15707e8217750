"""Exact betweenness via Spark-distributed Brandes passes.

The exact baseline of every table. The sources of a call are cut into
``defaultParallelism`` contiguous chunks, each chunk is swept with the
batched kernel :func:`~repro.bfs.local.dependency_block`, and the driver
reduces the per-chunk results in chunk order, so the result is identical
from run to run at a given ``defaultParallelism``. A call whose sweep work
exceeds :data:`LOCAL_WORK` runs its chunks as one Spark job against a
broadcast CSR; a smaller one, which would cost less than the job around
it, runs the same chunks on the driver, with bit-identical results. This
is the O(nm) computation the paper's samplers undercut.
"""
from __future__ import annotations

import sys
import zipimport
from typing import Any, Callable, Iterator, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..bfs.local import block_size, dependency_block
from ..graphs.csr import CSRGraph

# Sweep elements, sources × (n + arcs), up to which an exact call runs on
# the driver: the measured break-even against a Spark job's fixed cost
# (BA-2000 on local[4], median of 15: 225 sources, 3.1 M elements, 0.149 s
# on Spark against 0.152 s on the driver).
LOCAL_WORK = 3 * 2**20


def source_chunks(spark: SparkSession, sources: np.ndarray) -> list[np.ndarray]:
    """``sources`` cut into ``defaultParallelism`` contiguous chunks, never
    more chunks than sources (and one, possibly empty, if there are none)."""
    k = min(spark.sparkContext.defaultParallelism, len(sources))
    return np.array_split(sources, max(1, k))


def _drop_zip_importers() -> None:
    """Remove every ``zipimporter`` from ``sys.path_importer_cache``.

    PySpark's worker calls ``importlib.invalidate_caches()`` before every
    task, and on Python 3.11 that makes each cached ``zipimporter`` re-read
    its archive's central directory: 12 importers into ``pyspark.zip``
    (8 ms each) and 2 into the ``spark-core`` jar on the worker's
    ``PYTHONPATH`` (28 ms each), about 0.23 s per task on a 4-core VM.
    Dropping them is safe: the cache is only a cache, ``PathFinder``
    rebuilds a missing entry through ``sys.path_hooks`` on the next import
    that needs it, and a new ``zipimporter`` takes the archive listing from
    ``zipimport._zip_directory_cache`` without reading the file again.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            sys.path_importer_cache.pop(path, None)


def map_chunks(
    spark: SparkSession,
    g: CSRGraph,
    chunks: Sequence[Any],
    task: Callable[[CSRGraph, Any], Any],
    label: str,
) -> list[Any]:
    """``[task(g, chunk) for chunk in chunks]`` as one Spark job, in chunk order.

    One task per chunk runs ``task`` against a broadcast copy of ``g`` and
    then leaves its Python worker without cached zip importers
    (:func:`_drop_zip_importers`), so the worker's next task starts without
    re-reading any archive. The job carries ``label`` as its Spark job
    description (the previous one is restored afterwards), and the
    broadcast is destroyed once it returns.
    """
    sc = spark.sparkContext
    bg = sc.broadcast(g)

    def run(chunk: Any) -> Any:
        try:
            return task(bg.value, chunk)
        finally:
            _drop_zip_importers()

    previous = sc.getLocalProperty("spark.job.description")
    sc.setJobDescription(label)
    try:
        return (
            sc.parallelize(chunks, len(chunks))
            .map(run)
            .collect()
        )
    finally:
        sc.setJobDescription(previous)
        bg.destroy()


def _map_blocks(
    spark: SparkSession,
    g: CSRGraph,
    sources: np.ndarray,
    fold: Callable[[Iterator[np.ndarray]], np.ndarray],
    label: str,
) -> list[np.ndarray]:
    """``fold`` of the :func:`dependency_block` outputs of each of the
    :func:`source_chunks` of ``sources``, one block of :func:`block_size`
    sources at a time, in chunk order. One Spark job labelled ``label``
    (:func:`map_chunks`) when the sweep work exceeds :data:`LOCAL_WORK`;
    otherwise the same chunks run in this process, with no job, broadcast
    or job label."""

    def task(graph: CSRGraph, chunk: np.ndarray) -> np.ndarray:
        step = block_size(graph)
        return fold(
            dependency_block(graph, chunk[i : i + step])
            for i in range(0, len(chunk), step)
        )

    chunks = source_chunks(spark, sources)
    if len(sources) * (g.n + len(g.indices)) <= LOCAL_WORK:
        return [task(g, chunk) for chunk in chunks]
    return map_chunks(spark, g, chunks, task, label)


def betweenness_vector(spark: SparkSession, g: CSRGraph) -> np.ndarray:
    """Exact ``BC`` as a dense NumPy vector indexed by vertex id.

    Ordered-pair convention (matches :mod:`repro.brandes.reference`).
    Each chunk's task sums the dependency vectors of its sources, so the
    driver reduces O(chunks · n) floats, not O(n²). One Spark job, or none
    for a graph whose sweep is at most :data:`LOCAL_WORK` elements.
    """
    n = g.n

    def fold(blocks: Iterator[np.ndarray]) -> np.ndarray:
        return sum((block.sum(axis=0) for block in blocks), np.zeros(n))

    parts = _map_blocks(
        spark, g, np.arange(n, dtype=np.int64), fold, "brandes.betweenness_vector"
    )
    return sum(parts, np.zeros(n))


def _vertex_ids(g: CSRGraph, ids: Sequence[int], what: str) -> np.ndarray:
    """Sorted distinct vertex ids; ``ValueError`` if any is outside ``[0, n)``."""
    out = np.unique(np.asarray(ids, dtype=np.int64))
    if len(out) and (out[0] < 0 or out[-1] >= g.n):
        bad = out[0] if out[0] < 0 else out[-1]
        raise ValueError(f"{what} {int(bad)} out of range [0, {g.n})")
    return out


def check_sampler_args(g: CSRGraph, R: Sequence[int], T: int) -> None:
    """``ValueError`` unless ``g`` has at least 2 vertices, ``T ≥ 1`` and ``R``
    is a non-empty list of distinct vertices of ``g`` (the targets of a
    sampler run)."""
    if g.n < 2:
        raise ValueError(f"graph has {g.n} vertices; sampling needs at least 2")
    if T < 1:
        raise ValueError(f"T must be at least 1, got {T}")
    if not len(R):
        raise ValueError("R must not be empty")
    if len(_vertex_ids(g, R, "target")) != len(R):
        raise ValueError(f"R has duplicate vertices: {list(R)}")


def score_table(scores: Any, n: int, k: int | None = None) -> np.ndarray:
    """A sampler's own dense δ table, shape ``(n,)`` or ``(n, k = |R|)``, made
    from ``scores``: None, an array of that shape (copied, never written) or
    a dict ``{v: δ}`` / ``{v: δ-vector over R}``. NaN marks a vertex not yet
    scored; the kernels never return NaN. ``ValueError`` on a wrong shape."""
    shape = (n,) if k is None else (n, k)
    if scores is None or isinstance(scores, dict):
        table = np.full(shape, np.nan)
        if scores:
            table[list(scores)] = list(scores.values())
        return table
    table = np.array(scores, dtype=np.float64)
    if table.shape != shape:
        raise ValueError(f"score table has shape {table.shape}, expected {shape}")
    return table


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
    quantities. One Spark job, or none when ``len(sources) · (n + arcs)``
    is at most :data:`LOCAL_WORK`; the rows are the same either way.
    Raises ``ValueError`` if ``targets`` is empty or a target or source is
    not a vertex of ``g``.
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

    delta = np.concatenate(_map_blocks(spark, g, src, fold, "brandes.dependency_matrix"))
    return pd.DataFrame(
        {
            "s": np.tile(src, len(tg)),
            "r": np.repeat(tg, len(src)),
            "delta": delta.T.ravel(),
        }
    )


def normalized_bc(bc: float, n: int) -> float:
    """``nbc(r) = BC(r) / (n(n−1))`` — the [0,1]-scale estimand of
    Theorem 1 (see DESIGN.md faithfulness notes)."""
    return bc / (n * (n - 1))
