"""The benchmark workloads: set-up, one op, and the correctness gates.

An op is one call to a public estimator or exact-sweep function. Every op
seed derives from the workload seed and the op index, so the same seed
replays the same ops. The program is reached only through module
attributes (``mhs.mh_single``, ``exact.betweenness_vector``, ...), which
is where the traced run installs its spans.

Why each workload exists, and which layer it stresses:

* ``cold-mh``: the real scoring path of Table 7, and the RK baseline of
  Table 5 on the same graph. Every op starts Spark jobs on a low-diameter
  graph: one ``dependency_matrix`` job per MH op, whose fixed cost
  dominates the T=50 ops while the kernel matters more in the T=1000 ops,
  and one pair-sampling job per RK op, the only user of
  ``random_shortest_path``.
* ``warm-chains``: the Table 3/4/6 inner loop over a precomputed δ table.
  Driver-only work: no Spark job and no kernel pass, so a kernel or Spark
  change should leave it unmoved.
* ``exact-deep``: ground-truth sweeps on high-diameter graphs, one large
  job per call, where the kernel's per-level NumPy overhead shows.

Graph sizes are smaller than the table suite's: every run starts its own
Spark session and computes its own ground truth, and the whole set of
runs must fit the benchmark's time budget. The grid and tree sizes are
chosen so that one op costs about the same on either graph, which keeps
the op median from jumping between two modes.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines import rk_sampler
from repro.bfs.local import bfs_sigma, dependency_vector
from repro.brandes import exact
from repro.core import mh_joint as mhj
from repro.core import mh_single as mhs
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph

BA_N, BA_M = 2000, 3  # cold-mh and warm-chains graph
GRID, TREE_N, TREE_SEED = 20, 700, 3  # exact-deep graphs
# Three large ops per small one, so the op median stays out of the T=50 mode.
COLD_OPS = [("single", 1000), ("joint", 1000), ("single", 50), ("rk", 2000)]
# Both warm ops cost about the same (~50 ms here), so the median has one mode.
WARM_OPS = [("single", 40000), ("joint", 16000)]
ERR_OPS = 8  # est_rel_err is the mean over op indices 0..ERR_OPS-1
IDENTITY_SOURCES = 1  # sources per op checked against the distance identity


def op_seed(seed: int, i: int) -> int:
    """Seed of op ``i`` of a run with workload seed ``seed``."""
    return int(np.random.default_rng([seed, i]).integers(2**31))


def stable_order(bc: np.ndarray) -> np.ndarray:
    """Vertices by BC descending, then vertex id ascending, after rounding.

    BC is rounded relative to its maximum first, so two sweeps that differ
    only in summation order give the same keys; ties go to the lower id.
    """
    top = float(np.max(bc)) if len(bc) else 0.0
    key = np.round(bc / top, 9) if top > 0 else np.zeros_like(bc)
    return np.lexsort((np.arange(len(bc)), -key))


def probes(bc: np.ndarray, k: int) -> list[int]:
    """The ``k`` top-BC vertices, in an order that cannot drift between runs."""
    return [int(v) for v in stable_order(bc)[:k]]


def spread_probes(bc: np.ndarray) -> list[int]:
    """High, middle and lowest vertex of the stable order (three roles)."""
    order = stable_order(bc)
    return [int(order[0]), int(order[len(order) // 2]), int(order[-1])]


def serial_bc(g: CSRGraph) -> np.ndarray:
    """Exact BC as the serial sum of every source's dependency vector."""
    bc = np.zeros(g.n)
    for s in range(g.n):
        bc += dependency_vector(g, s)
    return bc


def serial_table(g: CSRGraph, targets: list[int]) -> np.ndarray:
    """``δ_s•(r)`` for every source ``s`` (rows) and every ``r`` in ``targets``."""
    return np.array([dependency_vector(g, s)[targets] for s in range(g.n)])


def close(a: Any, b: Any) -> bool:
    """Equal up to float summation order (relative 1e-9 of the larger scale)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = max(1.0, float(np.max(np.abs(b)))) if b.size else 1.0
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=1e-9, atol=1e-9 * scale))


def identity_failures(g: CSRGraph, sources: np.ndarray) -> list[str]:
    """Σ_v δ_s•(v) = Σ_t (d(s,t) − 1) and finiteness, on each source."""
    out = []
    for s in sources:
        delta = dependency_vector(g, int(s))
        dist, _ = bfs_sigma(g, int(s))
        reach = dist[dist > 0]
        if not np.all(np.isfinite(delta)):
            out.append(f"non-finite dependency vector at source {int(s)}")
        elif not close(delta.sum(), float((reach - 1).sum())):
            out.append(f"Σδ != Σ(d-1) at source {int(s)}")
    return out


def same_chain(a: Any, b: Any) -> bool:
    """Two chain results are the same chain with the same estimates."""
    if hasattr(a, "states"):
        pairs = [(a.states, b.states), (a.delta_chain, b.delta_chain),
                 (a.accepted, b.accepted), (a.estimate, b.estimate)]
    else:
        pairs = [(a.r_idx_chain, b.r_idx_chain), (a.v_chain, b.v_chain),
                 (a.delta_chain, b.delta_chain), (a.accepted, b.accepted),
                 (np.nan_to_num(a.ratio, nan=-1), np.nan_to_num(b.ratio, nan=-1))]
    return all(np.array_equal(x, y) for x, y in pairs)


@dataclass
class Outcome:
    """One op as the loop saw it."""

    index: int
    kind: str
    T: int
    seed: int
    wall: float
    result: Any
    error: str | None
    group: str
    passes: int = 0
    # filled in by the gate, which then drops ``result``
    jobs: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    n_scored: int = 0
    acceptance: float = 0.0
    estimate: float = float("nan")  # RK's nbc estimate


class Workload:
    """Base: set-up state, ops and gates shared by the workloads."""

    name = ""
    # The op cycle: op i is ops[i % len(ops)], as (kind, chain or path
    # count T, 0 for a sweep). The timed loop runs whole cycles only, so
    # every run sees the same mix of op kinds.
    ops: list[tuple[str, int]] = []

    def __init__(self, spark: Any, seed: int) -> None:
        self.spark = spark
        self.seed = seed
        self.build_s = 0.0
        self.graphs: list[CSRGraph] = []
        self.setup_failures: list[str] = []

    def build(self, make: Any) -> CSRGraph:
        t = time.perf_counter()
        g = make()
        self.build_s += time.perf_counter() - t
        self.graphs.append(g)
        return g

    def setup(self) -> None:
        """Build the graphs and the exact ground truth the gates compare with."""
        raise NotImplementedError

    def warmup(self) -> None:
        """Untimed ops, so Spark's first-job start-up is set-up time."""
        raise NotImplementedError

    def kind(self, i: int) -> tuple[str, int]:
        return self.ops[i % len(self.ops)]

    def run(self, i: int) -> tuple[Any, int]:
        """Run op ``i``; return its result and the Brandes passes it did."""
        raise NotImplementedError

    def check(self, o: Outcome) -> list[str]:
        """Failed gates of one op (empty when it is correct)."""
        raise NotImplementedError

    def est_rel_err(self, outcomes: list[Outcome]) -> float | None:
        """Mean relative error against exact of ops 0..ERR_OPS-1, or None.

        None for a workload without estimates. The ops do not depend on how
        many the timed loop finished, so the value repeats exactly for a
        given workload seed.
        """
        return None

    def main_graph(self) -> tuple[CSRGraph, list[int]]:
        """The graph and targets for the one-source fixed-cost probe."""
        raise NotImplementedError

    def sample(self, i: int, pool: np.ndarray, k: int) -> np.ndarray:
        """``k`` distinct members of ``pool``, seeded by the workload seed and ``i``."""
        rng = np.random.default_rng([self.seed, i, 7])
        pool = np.unique(pool)
        return rng.choice(pool, size=min(k, len(pool)), replace=False)


class _BA(Workload):
    """Shared set-up of cold-mh and warm-chains: BA graph, probes, δ table."""

    def setup(self) -> None:
        g = self.g = self.build(lambda: gen.barabasi_albert(BA_N, BA_M, seed=1))
        self.bc = self.exact_bc()
        self.R = probes(self.bc, 3)
        self.r = self.R[0]
        table = self.delta_table()
        if not close(table.sum(axis=0), self.bc[self.R]):
            self.setup_failures.append("δ table column sums != BC(R)")
        self.single_scores = {v: float(table[v, 0]) for v in range(g.n)}
        self.joint_scores = {v: table[v] for v in range(g.n)}
        self.nbc = exact.normalized_bc(float(self.bc[self.r]), g.n)

    def exact_bc(self) -> np.ndarray:
        """Exact BC of every vertex."""
        raise NotImplementedError

    def delta_table(self) -> np.ndarray:
        """Dense δ table: one row per source, one column per vertex of R."""
        raise NotImplementedError

    def call(self, i: int, warm: bool) -> Any:
        """Op ``i``; ``warm`` passes the dense δ table, so MH scores nothing."""
        kind, T = self.kind(i)
        sd = op_seed(self.seed, i)
        if kind == "single":
            scores = self.single_scores if warm else None
            return mhs.mh_single(self.spark, self.g, self.r, T, seed=sd, scores=scores)
        if kind == "joint":
            scores = self.joint_scores if warm else None
            return mhj.mh_joint(self.spark, self.g, self.R, T, seed=sd, scores=scores)
        return rk_sampler.rk_estimate(self.spark, self.g, self.r, T, seed=sd)

    def run(self, i: int) -> tuple[Any, int]:
        res = self.call(i, warm=self.name == "warm-chains")
        return res, res.n_scored

    def check(self, o: Outcome) -> list[str]:
        res, out = o.result, []
        if o.kind == "rk":
            if not (np.isfinite(res.estimate_nbc) and 0.0 <= res.estimate_nbc <= 1.0):
                out.append(f"RK estimate {res.estimate_nbc} outside [0, 1]")
            states = np.arange(self.g.n)
        else:
            if not np.all(np.isfinite(res.delta_chain)):
                out.append("non-finite δ in chain")
            if not np.all(np.isfinite(res.estimate if o.kind == "single" else res.ratio)):
                out.append("non-finite estimate")
            states = res.states if o.kind == "single" else res.v_chain
        return out + identity_failures(self.g, self.sample(o.index, states, IDENTITY_SOURCES))

    def est_rel_err(self, outcomes: list[Outcome]) -> float:
        # A warm replay is the cold MH op's chain (a gate checks this) and
        # costs no Spark job. RK ops cannot be replayed without Spark, so an
        # RK op among the first ERR_OPS counts only if the timed loop ran it.
        ran = {o.index: o for o in outcomes if o.error is None}
        errs = []
        for i in range(ERR_OPS):
            kind = self.kind(i)[0]
            if kind == "single":
                errs.append(abs(self.call(i, warm=True).estimate - self.nbc) / self.nbc)
            elif kind == "joint":
                ratio = self.call(i, warm=True).ratio
                for a, ra in enumerate(self.R):
                    for b, rb in enumerate(self.R):
                        if a != b:
                            true = self.bc[ra] / self.bc[rb]
                            errs.append(abs(ratio[a, b] - true) / true)
            elif i in ran:
                errs.append(abs(ran[i].estimate - self.nbc) / self.nbc)
        return float(np.mean(errs))

    def main_graph(self) -> tuple[CSRGraph, list[int]]:
        return self.g, self.R


class ColdMH(_BA):
    name = "cold-mh"
    ops = COLD_OPS

    def exact_bc(self) -> np.ndarray:
        return exact.betweenness_vector(self.spark, self.g)

    def delta_table(self) -> np.ndarray:
        dm = exact.dependency_matrix(self.spark, self.g, self.R)
        table = np.zeros((self.g.n, len(self.R)))
        col = {r: j for j, r in enumerate(self.R)}
        table[dm["s"].to_numpy(), [col[int(r)] for r in dm["r"]]] = dm["delta"].to_numpy()
        return table

    def warmup(self) -> None:
        # A whole cycle: each op kind's first run in a session is slow.
        for i in range(len(COLD_OPS)):
            self.call(len(COLD_OPS) * 1000 + i, warm=False)

    def check(self, o: Outcome) -> list[str]:
        out = super().check(o)
        if o.kind != "rk":
            warm = self.call(o.index, warm=True)
            if warm.n_scored != 0:
                out.append("warm replay scored vertices")
            if not same_chain(o.result, warm):
                out.append("cold chain differs from warm chain of the same seed")
        return out


class WarmChains(_BA):
    """Ground truth comes from serial kernel passes: the workload's ops never
    touch Spark, so neither does its set-up beyond starting the session."""

    name = "warm-chains"
    ops = WARM_OPS

    def exact_bc(self) -> np.ndarray:
        return serial_bc(self.g)

    def delta_table(self) -> np.ndarray:
        return serial_table(self.g, self.R)

    def warmup(self) -> None:
        for i in range(len(WARM_OPS)):
            self.call(len(WARM_OPS) * 1000 + i, warm=True)

    def check(self, o: Outcome) -> list[str]:
        out = super().check(o)
        if o.result.n_scored != 0:
            out.append(f"warm op scored {o.result.n_scored} vertices")
        if o.jobs != 0:
            out.append(f"warm op ran {o.jobs} Spark jobs")
        return out


class ExactDeep(Workload):
    name = "exact-deep"
    ops = [("grid", 0), ("tree", 0)]

    def setup(self) -> None:
        self.gs = [
            self.build(lambda: gen.grid_2d(GRID, GRID)),
            self.build(lambda: gen.random_tree(TREE_N, seed=TREE_SEED)),
        ]
        self.ref = [serial_bc(g) for g in self.gs]
        self.Rg = [spread_probes(bc) for bc in self.ref]

    def warmup(self) -> None:
        # One op per graph: the first Spark jobs of a session run slowly while
        # the JVM compiles, and a single warm-up op leaves a visible trend.
        for i in range(2):
            res, _ = self.run(i)
            if self.Rg[i] != spread_probes(res[0]):
                self.setup_failures.append("probes from the Spark sweep differ from serial")
            o = Outcome(10**6, self.kind(i)[0], 0, 0, 0.0, res, None, "")
            self.setup_failures += self.check(o)

    def run(self, i: int) -> tuple[Any, int]:
        g, R = self.gs[i % 2], self.Rg[i % 2]
        bc = exact.betweenness_vector(self.spark, g)
        dm = exact.dependency_matrix(self.spark, g, R)
        return (bc, dm), 2 * g.n

    def check(self, o: Outcome) -> list[str]:
        k = 0 if o.kind == "grid" else 1
        g, ref, R = self.gs[k], self.ref[k], self.Rg[k]
        bc, dm = o.result
        out = []
        if not np.all(np.isfinite(bc)) or not np.all(np.isfinite(dm["delta"])):
            out.append("non-finite exact output")
        if not close(bc, ref):
            out.append("exact BC differs from the serial reference")
        sums = dm.groupby("r")["delta"].sum()
        if not close([sums.get(r, np.nan) for r in R], ref[R]):
            out.append("dependency_matrix column sums != BC(R_g)")
        return out + identity_failures(g, self.sample(o.index, np.arange(g.n), IDENTITY_SOURCES))

    def main_graph(self) -> tuple[CSRGraph, list[int]]:
        return self.gs[0], self.Rg[0]


WORKLOADS = {w.name: w for w in (ColdMH, WarmChains, ExactDeep)}
