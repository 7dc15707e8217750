"""Benchmark of the MH betweenness reproduction: three workloads, one closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload cold-mh --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12 --trace 0

One driver process (one client, closed loop) issues ops back to back on a
``local[N]`` SparkSession, N = usable cores, configured like the test
fixture. Ops run in whole cycles of the workload's op kinds until their
summed wall reaches ``--seconds``. Each op's output is checked right after
it returns, outside the timed wall.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
ops twice, first plain for half the time and then with spans installed at
the layer boundaries, and prints the per-layer metrics plus the tracing
overhead (traced op wall over plain op wall, minus one).

The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``). A human-readable table of every named metric,
with units, comes before it; the full run record (environment, every op,
every span, every failure) is written to ``.perfbench/records/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ["cold-mh", "warm-chains", "exact-deep"]
DRIVER_MEM = "2g"

# The end-to-end metrics, with units. GATED are reported on every workload
# and bounded in BENCHMARK.json. The others are printed and recorded but not
# gated: passes_per_s, steps_per_s and est_rel_err exist on some workloads
# only, failed_frac is 0 when healthy, and op_tail_s (the 11th slowest op)
# follows bursts of CPU steal on a shared machine more than the program.
E2E_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passes_per_s": "1/s",
    "steps_per_s": "1/s",
    "est_rel_err": "1",
    "failed_frac": "1",
}
GATED = ["setup_s", "op_p50_s", "ops_per_s", "peak_rss_mb"]


def parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args()


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            summary["metrics"][f"{name}.{k}"] = v
    print(json.dumps(summary))
    return 0


def configure(tmp: Path) -> None:
    """Environment for a local Spark that reads and writes under ``tmp`` only.

    Must run before pyspark starts its JVM. Executors import ``repro``
    from ``src/`` through PYTHONPATH, as the tests do.
    """
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [str(SRC), os.environ.get("PYTHONPATH", "")] if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM, the spark-submit launcher's too: no /tmp/hsperfdata_* files.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{len(os.sched_getaffinity(0))}] "
        f"--driver-memory {DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.sql.warehouse.dir={tmp / 'warehouse'} "
        "pyspark-shell"
    )
    sys.path.insert(0, str(SRC))


def session():
    """A session with the test fixture's post-launch configs."""
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop(spark) -> None:
    """Stop Spark and wait for the JVM it launched to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def loop(w, seconds: float | None, n_ops: int | None, phase: str, tally,
         tracer=None) -> tuple[list, float]:
    """Closed loop: run ops back to back until ``n_ops`` ops, or until ``seconds``
    of op wall have passed and the last op cycle is complete.

    Only the op call is timed. Each op is gated right after it returns, and
    its result is then dropped, so neither the gates nor kept results show
    in the timings or in ``peak_rss_mb``.
    """
    from spans import self_time
    from workloads import Outcome, op_seed

    sc = w.spark.sparkContext
    outcomes, busy, i = [], 0.0, 0
    while (i < n_ops) if n_ops is not None else (busy < seconds or i % len(w.ops)):
        kind, T = w.kind(i)
        group = f"{phase}-{i}"
        sc.setJobGroup(group, f"perfbench {w.name} {phase} op {i}")
        span = None
        if tracer is not None:
            tracer.op = i
            span = tracer.begin("op")
        t = time.perf_counter()
        result, passes, error = None, 0, None
        try:
            result, passes = w.run(i)
        except Exception:  # a failing op is counted and reported, never fatal
            error = traceback.format_exc()
        wall = time.perf_counter() - t
        reasons = []
        if span is not None:
            tracer.end(span)
            tracer.op = None
            if self_time(tracer.spans, span) < 0:
                reasons.append("child spans exceed the op's wall (negative self time)")
        sc.setJobGroup("perfbench-gate", "correctness gates, untimed")
        o = Outcome(i, kind, T, op_seed(w.seed, i), wall, result, error, group, passes)
        gate(w, o, tally, phase, reasons)
        outcomes.append(o)
        busy += wall
        i += 1
    return outcomes, busy


def gate(w, o, tally, phase: str, reasons: list[str]) -> None:
    """Account the op's Spark jobs, run every correctness gate, drop the result."""
    from spans import job_stats

    js = job_stats(w.spark.sparkContext, o.group)
    o.jobs, o.tasks, o.failed_tasks = js.jobs, js.tasks, js.failed_tasks
    if o.error is not None:
        reasons.append("raised: " + o.error.strip().splitlines()[-1])
    else:
        reasons += w.check(o)
        o.n_scored = getattr(o.result, "n_scored", 0)
        o.acceptance = getattr(o.result, "acceptance_rate", 0.0)
        o.estimate = getattr(o.result, "estimate_nbc", float("nan"))
    if js.failed_jobs or js.failed_tasks:
        reasons.append(f"{js.failed_jobs} failed jobs, {js.failed_tasks} failed tasks")
    tally.record(f"{phase}-{o.index}", reasons)
    o.result = None


def e2e(w, outcomes, busy: float, setup_s: float, tally) -> tuple[dict, dict]:
    """The named end-to-end metrics (None where a workload has none)."""
    from metrics import tail

    walls = [o.wall for o in outcomes]
    tl = tail(walls)
    steps = sum(o.T for o in outcomes if o.kind in ("single", "joint"))
    passes = sum(o.passes for o in outcomes)
    err = w.est_rel_err(outcomes)
    m = {
        "setup_s": setup_s,
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tl.value,
        "ops_per_s": len(outcomes) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes_per_s": passes / busy if passes else None,
        "steps_per_s": steps / busy if steps else None,
        "est_rel_err": err,
        "failed_frac": tally.failed_frac,
    }
    tail_info = {"percentile": tl.percentile, "n_ops": tl.n_ops, "ops_beyond": tl.beyond}
    return m, tail_info


def environment(spark) -> dict:
    import numpy
    import pyspark

    sc = spark.sparkContext
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "master": sc.master,
        "defaultParallelism": sc.defaultParallelism,
        "driver_memory": DRIVER_MEM,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": pyspark.__version__,
        "git_sha": sha,
        "machine": platform.machine(),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine, or None without ``/proc/stat``.

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    its share during a run explains much of the run-to-run spread.
    """
    try:
        ticks = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except OSError:
        return None
    return ticks[7], sum(ticks)


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for k, v in values.items():
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {k:36s} {shown:>14s} {units[k]}")


def main() -> int:
    args = parse()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    tmp = ROOT / ".perfbench" / "tmp" / str(os.getpid())
    configure(tmp)
    from layers import MOVES, UNITS as LAYER_UNITS, layer_metrics
    from metrics import Tally
    from spans import BroadcastMeter, Tracer
    from workloads import WORKLOADS

    ticks0 = cpu_ticks()
    spark = session()
    try:
        phases = {"session": time.perf_counter() - T_START}
        w = WORKLOADS[args.workload](spark, args.seed)
        w.setup()
        phases["ground_truth"] = time.perf_counter() - T_START - sum(phases.values())
        w.warmup()
        phases["warmup"] = time.perf_counter() - T_START - sum(phases.values())
        setup_s = time.perf_counter() - T_START
        tally = Tally()
        if w.setup_failures:
            tally.record("setup", w.setup_failures)
        record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "setup_phases_s": phases,
                  "environment": environment(spark)}
        if args.trace == 0:
            outcomes, busy = loop(w, args.seconds, None, "timed", tally)
            values, tail_info = e2e(w, outcomes, busy, setup_s, tally)
            record.update(end_to_end=values, tail=tail_info)
            print_table(f"{w.name} seed={args.seed}: end-to-end "
                        f"(tail = p{tail_info['percentile']:.1f} of {tail_info['n_ops']} ops, "
                        f"{tail_info['ops_beyond']} beyond)", values, E2E_UNITS)
            metrics = {k: {"value": values[k], "unit": E2E_UNITS[k]} for k in GATED}
        else:
            plain, _ = loop(w, args.seconds / 2, None, "plain", tally)
            tracer = Tracer()
            meter = BroadcastMeter(tracer)
            restores = [tracer.install(), meter.install()]
            try:
                traced, _ = loop(w, None, len(plain), "traced", tally, tracer)
            finally:
                for restore in reversed(restores):
                    restore()
            values = layer_metrics(w, tracer, meter, plain, traced)
            record.update(per_layer=values, spans=[vars(s) for s in tracer.spans])
            outcomes = plain + traced
            print_table(f"{w.name} seed={args.seed}: per-layer "
                        f"(traced {len(traced)} ops; overhead {values['trace.overhead']:+.3f})",
                        values, LAYER_UNITS)
            print("  layer -> end-to-end metric it should move:")
            for layer, moves in MOVES.items():
                print(f"    {layer}: {moves}")
            metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in values.items()}
        record["ops"] = [
            {k: getattr(o, k) for k in ("index", "kind", "T", "seed", "wall", "passes",
                                         "jobs", "tasks", "failed_tasks", "error")}
            for o in outcomes
        ]
        ticks1 = cpu_ticks()
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            record["cpu_steal_frac"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        record["failures"] = tally.failures
        for op, reasons in tally.failures.items():
            print(f"FAILED {op}: {'; '.join(reasons)}", file=sys.stderr)
    finally:
        stop(spark)
        shutil.rmtree(tmp, ignore_errors=True)
    out_dir = ROOT / ".perfbench" / "records"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
