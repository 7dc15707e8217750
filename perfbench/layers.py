"""Per-layer metrics of the traced run, one group per ``src/repro`` module.

Per-op values are means over the traced ops; a layer a workload never
calls reports 0. ``MOVES`` says which end-to-end metric each layer's
metrics should move, on which workload; later changes cite it by name.
"""
from __future__ import annotations

import pickle
import statistics
import time

import numpy as np

from repro.bfs.local import bfs_sigma, dependency_vector, random_shortest_path
from repro.brandes import exact
from spans import BroadcastMeter, Tracer, self_time

BFS_SAMPLE = 16  # serial passes timed per graph, drawn from the sources the ops scored
RSP_SAMPLE = 100  # serial random_shortest_path calls timed where ops ran RK
FIXED_REPEATS = 3  # one-source dependency_matrix calls behind brandes.fixed_s

MOVES = {
    "graphs": "setup_s on every workload",
    "bfs": "passes_per_s and op_p50_s: mostly exact-deep, partly cold-mh, not warm-chains",
    "bfs.random_shortest_path": "ops_per_s on cold-mh (its RK ops) only",
    "brandes": "op_p50_s on cold-mh (mostly its T=50 ops), barely exact-deep; "
               "speedup_vs_serial moves passes_per_s on both",
    "core": "steps_per_s and op_p50_s on warm-chains, not cold-mh; "
            "the score table's layout moves peak_rss_mb on warm-chains",
    "baselines": "ops_per_s and passes_per_s on cold-mh (its RK ops)",
    "trace": "tracing overhead of this run, moves nothing",
}

UNITS = {
    "graphs.build_s": "s",
    "graphs.csr_bytes": "bytes",
    "bfs.dependency_vector.pass_ms": "ms",
    "bfs.dependency_vector.arcs_per_s": "1/s",
    "bfs.bfs_sigma.pass_ms": "ms",
    "bfs.reverse_share": "1",
    "bfs.levels": "count",
    "bfs.nonfinite": "count",
    "bfs.random_shortest_path.ms": "ms",
    "brandes.dependency_matrix.calls": "count/op",
    "brandes.dependency_matrix.busy_s": "s/op",
    "brandes.dependency_matrix.sources": "count/op",
    "brandes.fixed_s": "s",
    "brandes.speedup_vs_serial": "1",
    "brandes.betweenness_vector.busy_s": "s/op",
    "brandes.spark_jobs": "count/op",
    "brandes.spark_tasks": "count/op",
    "brandes.failed_tasks": "count/op",
    "brandes.broadcasts": "count/op",
    "brandes.broadcast_bytes": "bytes/op",
    "core.score.busy_s": "s/op",
    "core.scan.busy_s": "s/op",
    "core.scan.steps_per_s": "1/s",
    "core.estimate.busy_s": "s/op",
    "core.self_s": "s/op",
    "core.n_scored": "count/op",
    "core.new_per_step": "1",
    "core.acceptance_rate": "1",
    "core.cache_hit_ratio": "1",
    "baselines.rk_estimate.busy_s": "s/op",
    "baselines.rk.paths_per_s": "1/s",
    "baselines.rk.hit_frac": "1",
    "trace.overhead": "1",
}


def _mean(xs) -> float:
    xs = list(xs)
    return float(np.mean(xs)) if xs else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def scored_sources(tracer: Tracer) -> list[tuple[str, object, np.ndarray]]:
    """(span name, graph, sources) of every Brandes call the traced ops made."""
    out = []
    for op, name, g, src in tracer.calls:
        if op is not None:  # None: a gate's call, not an op's
            out.append((name, g, np.arange(g.n) if src is None else np.asarray(src)))
    return out


def serial_passes(w, calls) -> tuple[dict, dict[int, float]]:
    """Time serial kernel passes on a sample of the scored sources, per graph."""
    pools: dict[int, tuple[object, list]] = {}
    for g, src in calls:
        pools.setdefault(id(g), (g, []))[1].append(src)
    dv, sg, arcs, levels, nonfinite = [], [], 0, [], 0
    pass_s: dict[int, float] = {}
    for key, (g, srcs) in pools.items():
        per = []
        for s in w.sample(0, np.concatenate(srcs), BFS_SAMPLE):
            t = time.perf_counter()
            delta = dependency_vector(g, int(s))
            t_dv = time.perf_counter() - t
            t = time.perf_counter()
            dist, sigma = bfs_sigma(g, int(s))
            sg.append(time.perf_counter() - t)
            dv.append(t_dv)
            per.append(t_dv)
            arcs += len(g.indices)
            levels.append(int(dist.max()) + 1)
            nonfinite += int((~np.isfinite(delta)).sum() + (~np.isfinite(sigma)).sum())
        pass_s[key] = statistics.median(per)
    vals = {
        "bfs.dependency_vector.pass_ms": 1e3 * statistics.median(dv) if dv else 0.0,
        "bfs.dependency_vector.arcs_per_s": _ratio(arcs, sum(dv)),
        "bfs.bfs_sigma.pass_ms": 1e3 * statistics.median(sg) if sg else 0.0,
        "bfs.reverse_share": _ratio(sum(dv) - sum(sg), sum(dv)),
        "bfs.levels": _mean(levels),
        "bfs.nonfinite": float(nonfinite),
    }
    return vals, pass_s


def layer_metrics(w, tracer: Tracer, meter: BroadcastMeter, plain: list, traced: list) -> dict:
    """Every per-layer metric, from the traced ops (already gated) and serial probes."""
    ops = range(len(traced))
    self_s = {s.op: self_time(tracer.spans, i) for i, s in enumerate(tracer.spans) if s.name == "op"}
    totals = tracer.totals()

    def busy(name: str) -> float:
        """Mean busy time per traced op."""
        return _mean(totals[name, k] for k in ops)

    v = {
        "graphs.build_s": w.build_s,
        "graphs.csr_bytes": float(sum(len(pickle.dumps(g)) for g in w.graphs)),
    }
    calls = scored_sources(tracer)
    bfs_vals, pass_s = serial_passes(w, [(g, src) for _, g, src in calls])
    v.update(bfs_vals)
    rsp = []
    if any(o.kind == "rk" for o in traced):
        rng = np.random.default_rng([w.seed, 11])
        for _ in range(RSP_SAMPLE):
            s, t = rng.choice(w.g.n, size=2, replace=False)
            t0 = time.perf_counter()
            random_shortest_path(w.g, int(s), int(t), rng)
            rsp.append(time.perf_counter() - t0)
    v["bfs.random_shortest_path.ms"] = 1e3 * statistics.median(rsp) if rsp else 0.0

    dm = [src for name, _, src in calls if name == "brandes.dependency_matrix"]
    spark_busy = len(traced) * (busy("brandes.dependency_matrix") + busy("brandes.betweenness_vector"))
    serial_est = sum(len(src) * pass_s[id(g)] for _, g, src in calls)
    g, R = w.main_graph()
    fixed = []
    for _ in range(FIXED_REPEATS):
        t0 = time.perf_counter()
        exact.dependency_matrix(w.spark, g, R, sources=[R[0]])
        fixed.append(time.perf_counter() - t0)
    n = max(1, len(traced))
    v.update({
        "brandes.dependency_matrix.calls": len(dm) / n,
        "brandes.dependency_matrix.busy_s": busy("brandes.dependency_matrix"),
        "brandes.dependency_matrix.sources": sum(len(src) for src in dm) / n,
        "brandes.fixed_s": statistics.median(fixed),
        "brandes.speedup_vs_serial": _ratio(serial_est, spark_busy),
        "brandes.betweenness_vector.busy_s": busy("brandes.betweenness_vector"),
        "brandes.spark_jobs": _mean(o.jobs for o in traced),
        "brandes.spark_tasks": _mean(o.tasks for o in traced),
        "brandes.failed_tasks": _mean(o.failed_tasks for o in traced),
        "brandes.broadcasts": _mean(meter.count[k] for k in ops),
        "brandes.broadcast_bytes": _mean(meter.bytes[k] for k in ops),
    })

    chains = [o for o in traced if o.kind in ("single", "joint") and o.error is None]
    steps = sum(o.T for o in chains)
    scan = sum(totals["core.scan", o.index] for o in chains)
    scored = sum(o.n_scored for o in chains)
    v.update({
        "core.score.busy_s": busy("core.score"),
        "core.scan.busy_s": busy("core.scan"),
        "core.scan.steps_per_s": _ratio(steps, scan),
        "core.estimate.busy_s": busy("core.estimate"),
        "core.self_s": _mean(self_s[o.index] for o in chains),
        "core.n_scored": _mean(o.n_scored for o in chains),
        "core.new_per_step": _ratio(scored, steps),
        "core.acceptance_rate": _mean(o.acceptance for o in chains),
        # share of the T+1 score lookups per chain served without a new pass
        "core.cache_hit_ratio": 1.0 - _ratio(scored, steps + len(chains)) if chains else 0.0,
    })

    rks = [o for o in traced if o.kind == "rk" and o.error is None]
    rk_busy = sum(totals["baselines.rk_estimate", o.index] for o in rks)
    v.update({
        "baselines.rk_estimate.busy_s": busy("baselines.rk_estimate"),
        "baselines.rk.paths_per_s": _ratio(sum(o.T for o in rks), rk_busy),
        "baselines.rk.hit_frac": _mean(o.estimate for o in rks),
    })
    common = min(len(plain), len(traced))
    v["trace.overhead"] = _ratio(sum(o.wall for o in traced[:common]),
                                 sum(o.wall for o in plain[:common])) - 1.0
    return v
