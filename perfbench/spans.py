"""Spans at the layer boundaries, recorded from outside the program.

The benchmark never edits ``src/``. It replaces, for the traced run only,
the module attributes through which one layer calls the next (for example
``repro.core.mh_single.dependency_matrix``, the name the sampler looks up
when it scores vertices) with timing wrappers, and puts the originals back
afterwards. Spans are kept in memory and written into the run record.

Kernel calls inside Spark executors cannot be spanned from the driver; the
per-pass kernel figures come from serial calls made after the timed loop.
"""
from __future__ import annotations

import functools
import importlib
import pickle
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

# (module, attribute the calling layer looks up, span name)
SITES: list[tuple[str, str, str]] = [
    ("repro.core.mh_single", "score_vertices", "core.score"),
    ("repro.core.mh_joint", "score_vertices_joint", "core.score"),
    ("repro.core.mh_single", "run_chain", "core.scan"),
    ("repro.core.mh_joint", "run_joint_chain", "core.scan"),
    ("repro.core.mh_single", "eq7_estimate", "core.estimate"),
    ("repro.core.mh_single", "eq7_accepted_only", "core.estimate"),
    ("repro.core.mh_joint", "min_ratio", "core.estimate"),
    ("repro.core.mh_joint", "eq22_ratio", "core.estimate"),
    ("repro.core.mh_joint", "relative_score_estimate", "core.estimate"),
    ("repro.core.mh_single", "dependency_matrix", "brandes.dependency_matrix"),
    ("repro.core.mh_joint", "dependency_matrix", "brandes.dependency_matrix"),
    ("repro.brandes.exact", "dependency_matrix", "brandes.dependency_matrix"),
    ("repro.brandes.exact", "betweenness_vector", "brandes.betweenness_vector"),
    ("repro.baselines.rk_sampler", "rk_estimate", "baselines.rk_estimate"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    op: int | None  # index of the op this span belongs to

    @property
    def dur(self) -> float:
        return self.end - self.start


def self_time(spans: list[Span], i: int) -> float:
    """Duration of span ``i`` minus the part of it covered by its children.

    Children are merged as intervals first, so overlapping children are
    not subtracted twice.
    """
    kids = sorted((s.start, s.end) for s in spans if s.parent == i)
    covered, cur_s, cur_e = 0.0, None, None
    for a, b in kids:
        if cur_e is None or a > cur_e:
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = a, b
        else:
            cur_e = max(cur_e, b)
    if cur_e is not None:
        covered += cur_e - cur_s
    return spans[i].dur - covered


class Tracer:
    """In-memory span recorder; also keeps the graph and sources of each Brandes call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        # (op, span name, graph, sources) of every Brandes call; only these two
        # arguments are kept, so the trace holds no op's arrays alive
        self.calls: list[tuple[int | None, str, Any, Any]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, i: int) -> None:
        self.spans[i].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.spans[i].name} closed out of order")

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name.startswith("brandes."):
                self.calls.append((self.op, name, args[1], kwargs.get("sources")))
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)

        return traced

    def install(self) -> Callable[[], None]:
        """Wrap every site in ``SITES``; return the function that restores them."""
        saved = []
        for mod_name, attr, name in SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self.wrap(orig, name))

        def restore() -> None:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

        return restore

    def totals(self) -> dict[tuple[str, int | None], float]:
        """Busy time per (span name, op): the summed duration of its spans."""
        out: dict[tuple[str, int | None], float] = defaultdict(float)
        for s in self.spans:
            out[s.name, s.op] += s.dur
        return out


class BroadcastMeter:
    """Counts ``SparkContext.broadcast`` calls and their pickled bytes per op."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.count: dict[int | None, int] = defaultdict(int)
        self.bytes: dict[int | None, int] = defaultdict(int)

    def install(self) -> Callable[[], None]:
        from pyspark import SparkContext

        orig = SparkContext.broadcast

        @functools.wraps(orig)
        def metered(sc: SparkContext, value: Any) -> Any:
            op = self.tracer.op
            self.count[op] += 1
            self.bytes[op] += len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            return orig(sc, value)

        SparkContext.broadcast = metered

        def restore() -> None:
            SparkContext.broadcast = orig

        return restore


@dataclass(frozen=True)
class JobStats:
    jobs: int
    failed_jobs: int
    tasks: int
    failed_tasks: int


def job_stats(sc: Any, group: str) -> JobStats:
    """Jobs, completed tasks and failed tasks of one job group (``statusTracker``)."""
    st = sc.statusTracker()
    job_ids = st.getJobIdsForGroup(group)
    failed_jobs, stage_ids = 0, set()
    for jid in job_ids:
        info = st.getJobInfo(jid)
        if info is not None:
            failed_jobs += info.status == "FAILED"
            stage_ids.update(info.stageIds)  # a reused stage is listed by every job
    tasks = failed_tasks = 0
    for sid in stage_ids:
        stage = st.getStageInfo(sid)
        if stage is not None:
            tasks += stage.numCompletedTasks
            failed_tasks += stage.numFailedTasks
    return JobStats(len(job_ids), failed_jobs, tasks, failed_tasks)
