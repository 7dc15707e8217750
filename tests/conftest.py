"""Shared test fixtures: the small-graph suite and cached ground truth.

``SMALL_GRAPHS`` is the parametrization base for kernel-equivalence
tests; ``gt`` memoises pure-Python ground truth (dependency matrices,
exact BC) per graph so hundreds of tests stay fast.
"""
from __future__ import annotations

from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from repro.brandes import exact
from repro.brandes.reference import brandes_betweenness, brandes_dependency
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph

SMALL_GRAPHS: dict[str, callable] = {
    "path7": lambda: gen.path_graph(7),
    "cycle9": lambda: gen.cycle_graph(9),
    "star8": lambda: gen.star_graph(8),
    "complete6": lambda: gen.complete_graph(6),
    "barbell5": lambda: gen.barbell(5),
    "grid3x4": lambda: gen.grid_2d(3, 4),
    "roc3x4": lambda: gen.ring_of_cliques(3, 4),
    "tree15": lambda: gen.random_tree(15, seed=3),
    "er30": lambda: gen.erdos_renyi(30, 0.15, seed=1),
    "ba30": lambda: gen.barabasi_albert(30, 2, seed=2),
    "twocomm10": lambda: gen.two_communities(10, seed=4),
    "wheel9": lambda: gen.wheel_graph(9),
}


@lru_cache(maxsize=64)
def graph(key: str) -> CSRGraph:
    """Memoised instance of a suite graph."""
    return SMALL_GRAPHS[key]()


@lru_cache(maxsize=64)
def exact_bc(key: str) -> np.ndarray:
    """Memoised exact BC vector (pure-Python Brandes)."""
    return brandes_betweenness(graph(key))


@lru_cache(maxsize=4096)
def dep_column(key: str, r: int) -> np.ndarray:
    """Memoised dependency column ``δ_v•(r)`` over all sources ``v``."""
    g = graph(key)
    return np.array([brandes_dependency(g, s)[r] for s in range(g.n)])


@pytest.fixture(params=sorted(SMALL_GRAPHS))
def any_graph(request) -> CSRGraph:
    """Every graph in the small suite, one at a time."""
    return graph(request.param)


@pytest.fixture
def on_spark(monkeypatch):
    """Runs every exact call of the test as a Spark job, however small
    (``exact.LOCAL_WORK = 0``), for tests of the Spark path itself."""
    monkeypatch.setattr(exact, "LOCAL_WORK", 0)


@contextmanager
def job_group(spark, group: str):
    """Runs the block under Spark job group ``group`` and yields a function
    that returns the ids of the jobs the block has started so far."""
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        yield lambda: sc.statusTracker().getJobIdsForGroup(group)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
