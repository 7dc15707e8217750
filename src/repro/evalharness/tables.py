"""Table builders — one function per EXPERIMENTS.md table.

Each ``tableN`` function takes a SparkSession plus a ``scale`` knob
("test" for CI-size inputs, "bench" for the sizes EXPERIMENTS.md
reports) and returns a tidy pandas DataFrame with exactly the columns
the corresponding table shows. ``jobs/run_table.py --table N`` wraps
them for spark-submit; ``benchmarks/test_tableN_*.py`` wrap them for
pytest-benchmark and assert the shape claims.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..brandes.exact import betweenness_vector
from ..graphs import generators as gen
from ..graphs.csr import CSRGraph
from . import runner


def bench_suite(scale: str = "bench") -> list[CSRGraph]:
    """The graph suite of Table 1 (dataset substitution; DESIGN.md)."""
    if scale == "test":
        return [
            gen.barabasi_albert(120, 3, seed=1),
            gen.erdos_renyi(100, 0.06, seed=2),
            gen.barbell(15),
            gen.ring_of_cliques(6, 8),
            gen.grid_2d(8, 8),
            gen.random_tree(100, seed=3),
            gen.two_communities(40, p_in=0.1, seed=4),
            gen.star_graph(101),
        ]
    return [
        gen.barabasi_albert(2000, 3, seed=1),
        gen.erdos_renyi(1200, 0.005, seed=2),
        gen.barbell(150),
        gen.ring_of_cliques(20, 15),
        gen.grid_2d(30, 30),
        gen.random_tree(2000, seed=3),
        gen.two_communities(400, p_in=0.02, seed=4),
        gen.star_graph(1001),
    ]


def rounded_bc(bc: np.ndarray) -> np.ndarray:
    """BC rounded to 9 digits relative to its maximum, so two sweeps that
    differ only in float summation order give the same values."""
    top = float(np.max(bc)) if len(bc) else 0.0
    return np.round(bc / top, 9) if top > 0 else np.zeros_like(bc)


def stable_order(bc: np.ndarray) -> np.ndarray:
    """Vertex ids by :func:`rounded_bc` descending, ties to the lower id."""
    return np.lexsort((np.arange(len(bc)), -rounded_bc(bc)))


def roles_for(spark: SparkSession, g: CSRGraph) -> list[tuple[int, str]]:
    """Labelled probe vertices per graph: the known separator where the
    family has one, plus the empirical max-BC and a mid-BC vertex."""
    known_sep = {
        "barbell": lambda: (g.n - 1) // 2,
        "2comm": lambda: g.n - 1,
        "star": lambda: 0,
    }
    out: list[tuple[int, str]] = []
    for key, fn in known_sep.items():
        if g.name.startswith(key):
            out.append((int(fn()), "separator"))
    bc = betweenness_vector(spark, g)
    vmax = int(stable_order(bc)[0])
    if all(v != vmax for v, _ in out):
        out.append((vmax, "max-bc"))
    pos = np.flatnonzero(bc > 0)
    if len(pos):
        # The median of the positive-BC vertices (rank len(pos)//2 ascending).
        vmid = int(pos[stable_order(bc[pos])[(len(pos) - 1) // 2]])
        if all(v != vmid for v, _ in out):
            out.append((vmid, "mid-bc"))
    return out


def table1(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T1 — dataset summary."""
    graphs = bench_suite(scale)
    # Untimed warm-up (as in table7): row 1 must not absorb Spark's start-up.
    # It sweeps row 1's own graph, so at bench scale it runs the same Spark
    # job, not the driver path of a graph below LOCAL_WORK.
    betweenness_vector(spark, graphs[0])
    return pd.DataFrame([runner.dataset_row(spark, g) for g in graphs])


def table2(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T2 — μ(r) across families and sizes (Theorem 2)."""
    if scale == "test":
        sizes = {"barbell": [10, 20], "star": [51, 101], "2comm": [25, 50],
                 "path": [51, 101], "ba": [100, 200]}
    else:
        sizes = {"barbell": [50, 100, 200, 400], "star": [251, 501, 1001, 2001],
                 "2comm": [100, 200, 400, 800], "path": [251, 501, 1001, 2001],
                 "ba": [500, 1000, 2000, 4000]}
    rows = []
    for k in sizes["barbell"]:
        g = gen.barbell(k)
        rows.append(runner.mu_row(spark, g, k, "separator"))
    for n in sizes["star"]:
        rows.append(runner.mu_row(spark, gen.star_graph(n), 0, "separator"))
    for k in sizes["2comm"]:
        g = gen.two_communities(k, p_in=min(1.0, 10.0 / k), seed=4)
        rows.append(runner.mu_row(spark, g, g.n - 1, "separator"))
    for n in sizes["path"]:
        rows.append(runner.mu_row(spark, gen.path_graph(n), n // 2, "middle"))
        rows.append(runner.mu_row(spark, gen.path_graph(n), n // 10, "off-center"))
        # Anti-example: separating off a single leaf violates Theorem 2's
        # balance condition, and μ(r) must grow ~n/2.
        rows.append(runner.mu_row(spark, gen.path_graph(n), 1, "near-leaf"))
    for n in sizes["ba"]:
        g = gen.barabasi_albert(n, 3, seed=1)
        bc = betweenness_vector(spark, g)
        rows.append(runner.mu_row(spark, g, int(stable_order(bc)[0]), "hub(max-bc)"))
        # The lowest positive rounded BC, ties to the lower id.
        key = rounded_bc(bc)
        pos = np.flatnonzero(key > 0)
        low = int(pos[np.argmin(key[pos])])
        rows.append(runner.mu_row(spark, g, low, "low-bc"))
    return pd.DataFrame(rows)


def table3(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T3 — single-space sampler accuracy vs both exact targets."""
    Ts = [200, 1000] if scale == "test" else [500, 2000, 8000]
    n_chains = 5 if scale == "test" else 20
    rows: list[dict] = []
    for g in bench_suite(scale):
        for r, role in roles_for(spark, g):
            rows += runner.single_accuracy_rows(
                spark, g, r, role, Ts, n_chains=n_chains
            )
    return pd.DataFrame(rows)


def table4(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T4 — (ε, δ) guarantee: Eq.-14 budget, empirical coverage."""
    n_chains = 20 if scale == "test" else 50
    probes: list[tuple[CSRGraph, int, str]] = []
    if scale == "test":
        probes.append((gen.barbell(15), 15, "separator"))
        probes.append((gen.star_graph(101), 0, "separator"))
    else:
        probes.append((gen.barbell(150), 150, "separator"))
        probes.append((gen.star_graph(1001), 0, "separator"))
        g2 = gen.two_communities(400, p_in=0.02, seed=4)
        probes.append((g2, g2.n - 1, "separator"))
        probes.append((gen.path_graph(1001), 500, "middle"))
    return pd.DataFrame(
        [
            runner.coverage_row(spark, g, r, role, n_chains=n_chains)
            for g, r, role in probes
        ]
    )


def table5(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T5 — MH vs the three baselines at an equal sample budget."""
    T = 300 if scale == "test" else 2000
    n_reps = 5 if scale == "test" else 10
    rows: list[dict] = []
    for g in bench_suite(scale):
        for r, role in roles_for(spark, g):
            if role == "mid-bc":
                continue  # keep the table focused on the paper's regime
            rows += runner.baseline_rows(spark, g, r, role, T, n_reps=n_reps)
    return pd.DataFrame(rows)


def table6(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T6 — joint-space sampler: ratios and relative scores."""
    Ts = [1000] if scale == "test" else [4000, 16000]
    n_chains = 4 if scale == "test" else 10
    rows: list[dict] = []
    for g in bench_suite(scale)[:4]:
        bc = betweenness_vector(spark, g)
        order = stable_order(bc)
        R = [int(order[0]), int(order[1]), int(order[len(order) // 4])]
        if bc[R[-1]] == 0:
            R[-1] = int(order[2])
        rows += runner.joint_rows(spark, g, R, Ts, n_chains=n_chains)
    return pd.DataFrame(rows)


def table7(spark: SparkSession, scale: str = "bench") -> pd.DataFrame:
    """T7 — runtime scaling of the real distributed sampling path."""
    if scale == "test":
        graphs = [gen.barabasi_albert(n, 3, seed=1) for n in (200, 400)]
        T = 200
    else:
        graphs = [gen.barabasi_albert(n, 3, seed=1) for n in (1000, 2000, 4000, 8000)]
        T = 2000
    # Untimed warm-up so the first timed row does not absorb Spark's
    # one-off costs (executor spin-up, broadcast machinery, JIT). It repeats
    # row 1, so at bench scale it runs the same Spark jobs, not the driver
    # path of a call below LOCAL_WORK.
    runner.runtime_row(spark, graphs[0], T)
    return pd.DataFrame([runner.runtime_row(spark, g, T) for g in graphs])


def render(df: pd.DataFrame, title: str) -> str:
    """Monospace rendering used by the jobs and EXPERIMENTS.md."""
    return f"== {title} ==\n{df.to_string(index=False)}\n"
