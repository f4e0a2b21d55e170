"""Benchmark runner: one workload per process, one closed-loop caller.

Usage::

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root.  The library is imported from ``src/`` beside
this directory; without it the runner exits with status 2 and prints no
result.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the
metrics are the end-to-end ones named in ``BENCHMARK.json``, with
``--trace 1`` the per-layer ones.  A fuller record (environment, per-operation
medians, which percentile the tail is) goes to ``--results``.

One caller runs the workload's operations in a fixed order, one at a time;
one pass over them is a cycle.  The timed pass runs whole cycles until
``--seconds`` have passed and at least ``MIN_SAMPLES`` operations have run,
so every run holds each operation the same number of times.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import tracemalloc
from pathlib import Path

PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every untraced run holds at least this many samples, enough for a p90 tail
# with ten samples beyond it; runs that fit more cycles keep that percentile.
MIN_SAMPLES = 110
TRACED_MIN_CYCLES = 3
QUICK_MIN_CYCLES = 2
SETUP_REPEATS = 3
COLD_STARTS_PER_CYCLE = 2
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def tail_percentile(samples: int) -> float:
    """Highest percentile of the ladder with at least ``TAIL_BEYOND`` samples above it."""
    fit = [p for p in PERCENTILES if samples - math.ceil(p * samples / 100) >= TAIL_BEYOND]
    return fit[-1] if fit else PERCENTILES[0]


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


class Runner:
    """Executes operations, checks them and keeps the failure count."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def execute(self, op, tracer=None) -> tuple[float, bool]:
        """Run ``op`` once; return its latency and whether its output checked out."""
        self.attempted += 1
        error = None
        # start every operation from the same collector state: garbage left by
        # earlier checks would otherwise move full collections between runs
        gc.collect()
        if tracer is not None:
            tracer.active = True
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # the loop must go on; the failure is counted and shown
            error = exc
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # a failed identity or an unreadable report
                error = exc
        if error is not None:
            self.fail(op.name, error)
        return latency, error is None

    def fail(self, name: str, error: BaseException) -> None:
        self.failed += 1
        if name not in self._reported:
            self._reported.add(name)
            print(f"# {name} failed:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)


def run_cycles(seconds: float, min_cycles: int, cycle) -> list[list[tuple[str, float, bool]]]:
    """Call ``cycle`` until ``seconds`` passed and ``min_cycles`` cycles ran."""
    cycles = []
    start = time.perf_counter()
    while len(cycles) < min_cycles or time.perf_counter() - start < seconds:
        cycles.append(cycle())
    return cycles


def memory_pass(runner: Runner, ops) -> float:
    """Largest ``tracemalloc`` peak of one operation, in MiB, over one cycle."""
    peak = 0
    for op in ops:
        runner.attempted += 1
        tracemalloc.start()
        try:
            result = op.run()
        except Exception as exc:
            tracemalloc.stop()
            runner.fail(op.name, exc)
            continue
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        try:
            op.check(result)
        except Exception as exc:
            runner.fail(op.name, exc)
    return peak / 2**20


def cold_start(runner: Runner, work: Path) -> float:
    """Wall time of one CLI run started as a fresh interpreter, checked."""
    import checks

    out = work / "cold-start.json"
    argv = [sys.executable, "-m", "framelab.cli", "bounds", "--gallery", "mercedes",
            "--out", str(out)]
    runner.attempted += 1
    start = time.perf_counter()
    done = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                          capture_output=True, timeout=120)
    elapsed = time.perf_counter() - start
    try:
        checks.require(done.returncode == 0, f"exit code {done.returncode}: {done.stderr!r}")
        report = checks.load_json(out)
        checks.close(report["lower"], 1.5, "mercedes lower bound")
        checks.close(report["upper"], 1.5, "mercedes upper bound")
    except Exception as exc:  # counted as a failed operation
        runner.fail("cold-start", exc)
    return elapsed


def git_rev(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_pinning": {k: os.environ.get(k) for k in PINNED_THREADS},
        "machine": platform.machine(),
        "git_rev": git_rev(ROOT),
        "seed": seed,
    }


def per_op_medians(samples) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for name, latency, _ in samples:
        by_op.setdefault(name, []).append(latency)
    return {name: statistics.median(values) for name, values in by_op.items()}


def untraced_run(runner, ops, args, min_cycles, setup_s, record) -> dict:
    def cycle():
        return [(op.name, *runner.execute(op)) for op in ops]

    cycles = run_cycles(args.seconds, min_cycles, cycle)
    samples = [sample for c in cycles for sample in c]
    latencies = [latency for _, latency, _ in samples]
    # the tail percentile is fixed by the guaranteed sample count, so it does not
    # move between runs that happen to fit one more cycle
    p = tail_percentile(len(ops) * min_cycles)
    record.update(
        cycles=len(cycles),
        samples=len(samples),
        tail_percentile=p,
        op_median_s=per_op_medians(samples),
        latencies_s=[[round(latency, 6) for _, latency, _ in c] for c in cycles],
    )
    print(f"# {len(cycles)} cycles, {len(samples)} samples; op_tail_s is p{p:g}")
    return {
        "setup_s": setup_s,
        "ops_per_s": sum(ok for _, _, ok in samples) / sum(latencies),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, p),
        "peak_alloc_mib": memory_pass(runner, ops),
    }


def traced_run(runner, ops, args, min_cycles, work, record) -> dict:
    """Alternate untraced and traced cycles; layer metrics are per-cycle medians."""
    import tracing

    tracer = tracing.Tracer()
    cold_starts: list[float] = []
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    accounting: list[dict[str, float]] = []

    def pair_of_cycles():
        untraced = [(op.name, *runner.execute(op)) for op in ops]
        untraced_walls.append(sum(latency for _, latency, _ in untraced))
        tracer.reset()
        traced = []
        bytes_out = 0
        with tracer.installed():
            for op in ops:
                traced.append((op.name, *runner.execute(op, tracer)))
                if op.out is not None and op.out.exists():
                    bytes_out += op.out.stat().st_size
        wall = sum(latency for _, latency, _ in traced)
        traced_walls.append(wall)
        self_times = tracer.self_times()
        roots = tracer.root_seconds()
        unattributed = wall - roots
        attributed = sum(self_times.values())
        accounting.append(
            {"wall_s": wall, "self_sum_s": attributed, "unattributed_s": unattributed}
        )
        if abs(attributed + unattributed - wall) > 1e-6 * wall or unattributed < 0:
            runner.fail("trace-accounting", RuntimeError(f"self times do not add up: {accounting[-1]}"))
        metrics = tracing.layer_metrics(self_times, tracer.counts)
        metrics["cli.bytes_out"] = bytes_out
        layers.append(metrics)
        # cold starts spread over the run, so swings in machine speed average out
        cold_starts.extend(cold_start(runner, work) for _ in range(COLD_STARTS_PER_CYCLE))
        return untraced + traced

    cycles = len(run_cycles(args.seconds, min_cycles, pair_of_cycles))
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    # adjacent cycles form a pair, so slow drifts of machine speed cancel
    out["trace.overhead_s"] = statistics.median(
        traced - untraced for traced, untraced in zip(traced_walls, untraced_walls)
    )
    out["cold_start_s"] = statistics.median(cold_starts)
    out["error_rate"] = runner.failed / runner.attempted
    wall = statistics.median(a["wall_s"] for a in accounting)
    record.update(
        traced_cycles=cycles,
        accounting=accounting,
        layer_share_of_wall={
            f"{bucket}_s": out[f"{bucket}_s"] / wall for bucket in tracing.TIME_BUCKETS
        },
    )
    print(f"# {cycles} traced cycles; per-layer values are medians per cycle")
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--results", str(args.results)]
        if args.quick:
            argv.append("--quick")
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
        print(f"{name}: {last}")
        status = status or done.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="spectral, ingest, refinement or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes and cycles, for the benchmark's own tests")
    parser.add_argument("--results", type=Path, default=ROOT / ".perfbench-out" / "results")
    args = parser.parse_args(argv)

    if not (SRC / "framelab" / "__init__.py").is_file():
        print(f"perfbench: no framelab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.update(PINNED_THREADS)  # before numpy is first imported, just below
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    start = time.perf_counter()
    import numpy  # noqa: F401
    import framelab.cli  # noqa: F401

    import_s = time.perf_counter() - start
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    build, why = workloads.WORKLOADS[args.workload]

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    runner = Runner()
    try:
        generation = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ops = build(args.seed, args.quick, work)
            generation.append(time.perf_counter() - start)
        start = time.perf_counter()
        for op in ops:  # warm-up: one checked cycle before anything is timed
            runner.execute(op)
        setup_s = import_s + statistics.median(generation) + time.perf_counter() - start
        min_cycles = QUICK_MIN_CYCLES if args.quick else math.ceil(MIN_SAMPLES / len(ops))

        record = {"workload": args.workload, "why": why, "quick": args.quick,
                  "environment": environment(args.seed), "layer_targets": workloads.LAYER_TARGETS}
        if args.trace:
            values = traced_run(runner, ops, args, min(min_cycles, TRACED_MIN_CYCLES), work,
                                record)
            wanted = spec["per_layer"]
        else:
            values = untraced_run(runner, ops, args, min_cycles, setup_s, record)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record["result"] = result
    args.results.mkdir(parents=True, exist_ok=True)
    path = args.results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"# environment: {json.dumps(record['environment'])}")
    print(f"# full record: {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
