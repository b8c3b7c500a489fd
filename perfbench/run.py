#!/usr/bin/env python3
"""The iocost benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed (set-up, done several
times and timed against a yardstick), then runs the workload's child
process back to back, one at a time, for S seconds. Every run's output is checked; a run
fails when it exits nonzero or any check fails. With ``--trace 1`` a
separate traced run follows and the per-layer metrics are reported.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

SETUPS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
# The yardstick's wall time on the 2-vCPU VM the benchmark was tuned on.
# setup_s is the set-up time over the yardstick's, in seconds of that machine.
YARDSTICK_S = 0.39

END_TO_END_UNITS = {"wall_rel": "ratio", "cpu_rel": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}
# Printed with the end-to-end metrics; not steady enough on a shared
# machine to bound a change by, see README.md.
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_wall_s": "s"}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # One client, one thread: keep numpy's thread pools to a single thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class ChildRun:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    start: float
    end: float


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], cwd: str, timeout_s: float = CHILD_TIMEOUT_S) -> ChildRun:
    """Run one child to completion and take its rusage from ``os.wait4``."""
    out_path = os.path.join(cwd, ".child.stdout")
    err_path = os.path.join(cwd, ".child.stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return ChildRun(
        code=proc.returncode,
        stdout=stdout,
        stderr=stderr,
        wall_s=end - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB on Linux
        start=start,
        end=end,
    )


class OutputChecker:
    """Checks every report of one set of runs.

    The first report's digest is the set's reference: every later report,
    traced or not, must be byte-identical to it. For the default seed at
    full size it must also match the digest stored in ``spec.json``.
    """

    def __init__(self, name: str, expected: dict, run_dir: str, stored_digest: str | None) -> None:
        self.name = name
        self.expected = expected
        self.run_dir = run_dir
        self.stored_digest = stored_digest
        self.reference: str | None = None
        self._trace_digest: str | None = None
        self._trace_stats: dict | None = None

    def problems(self, run: ChildRun) -> list[str]:
        if run.code != 0:
            tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            return [f"exit code {run.code}: {' '.join(tail)}"]
        text = run.stdout.decode("utf-8", "replace")
        try:
            found = self._check(text)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
            found = [f"malformed report ({type(exc).__name__}: {exc})"]
        digest = hashlib.sha256(run.stdout).hexdigest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            found.append("stdout differs from the first run of this set")
        if self.stored_digest is not None and digest != self.stored_digest:
            found.append("stdout differs from the stored default-seed digest")
        return found

    def _check(self, text: str) -> list[str]:
        if self.name == "ingest_cache":
            return workloads.check_ingest_cache(self.expected, text)
        if self.name == "scan_join":
            return workloads.check_scan_join(self.expected, text)
        path = workloads.synth_trace_path(self.run_dir)
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        found = []
        if self._trace_digest is None:
            self._trace_digest = digest
            self._trace_stats = workloads.trace_stats(path)
        elif digest != self._trace_digest:
            found.append("written trace differs from the first run of this set")
            self._trace_stats = workloads.trace_stats(path)
        return found + workloads.check_synth_sweep(self.expected, text, self._trace_stats)


def relative(times: list[float], yardsticks: list[float]) -> list[float]:
    """Each time over the mean of the yardstick runs just before and after it."""
    return [t / ((a + b) / 2) for t, a, b in zip(times, yardsticks, yardsticks[1:])]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    runs: list[ChildRun]
    # Each run's time over the mean of the yardstick runs just before and after it.
    wall_rel: list[float]
    cpu_rel: list[float]
    problems: list[str]
    # Each set-up's wall time, and the same over the mean of the yardstick
    # runs just before and after it, times YARDSTICK_S.
    setup_wall: list[float]
    setup_times: list[float]
    layers: dict | None


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> Result:
    spec = workloads.load_spec()
    sizes = workloads.sizes_of(name, spec, scale)
    stored = spec["workloads"][name]["digest"] if seed == spec["default_seed"] and scale == 1.0 else None
    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    try:
        return _run(name, seed, seconds, trace, sizes, stored, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _setup(name: str, seed: int, sizes: dict, run_dir: str) -> tuple[dict, list[float], list[float]]:
    """Generate the inputs and warm the bytecode cache, SETUPS times."""
    walls = []
    os.makedirs(run_dir, exist_ok=True)
    yardsticks = [_yardstick(run_dir).wall_s]
    for _ in range(SETUPS):
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        t0 = time.perf_counter()
        expected = workloads.GENERATORS[name](seed, run_dir, sizes)
        warm = run_child([sys.executable, "-c", "import iocost.cli"], run_dir)
        walls.append(time.perf_counter() - t0)
        if warm.code != 0:
            raise RuntimeError(f"cannot import iocost.cli: {warm.stderr.decode(errors='replace')}")
        yardsticks.append(_yardstick(run_dir).wall_s)
    return expected, walls, [YARDSTICK_S * r for r in relative(walls, yardsticks)]


def _yardstick(run_dir: str) -> ChildRun:
    run = run_child([sys.executable, os.path.join(HERE, "reference.py")], run_dir)
    if run.code != 0:
        raise RuntimeError(f"yardstick run failed: {run.stderr.decode(errors='replace')}")
    return run


def _run(name, seed, seconds, trace, sizes, stored, run_dir) -> Result:
    expected, setup_wall, setup_times = _setup(name, seed, sizes, run_dir)
    checker = OutputChecker(name, expected, run_dir, stored)
    program, args = workloads.child_argv(name, run_dir, sizes, seed)

    runs: list[ChildRun] = []
    yardsticks = [_yardstick(run_dir)]
    problems: list[str] = []
    failed = 0
    t0 = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - t0 < seconds:
        run = run_child(program + args, run_dir)
        runs.append(run)
        yardsticks.append(_yardstick(run_dir))
        found = checker.problems(run)
        if found:
            failed += 1
            problems.extend(f"run {len(runs)}: {p}" for p in found)

    layers = None
    attempted = len(runs)
    if trace:
        attempted += 1
        os.makedirs(WORK, exist_ok=True)
        spans_path = os.path.join(WORK, f"spans-{name}-{seed}.json")
        metrics_path = os.path.join(run_dir, "layers.json")
        run_id = f"{name}-{seed}-traced"
        traced = run_child(
            [sys.executable, os.path.join(HERE, "tracer.py"), name, run_dir, run_id,
             spans_path, metrics_path] + args,
            run_dir,
        )
        found = checker.problems(traced)
        if found:
            failed += 1
            problems.extend(f"traced run: {p}" for p in found)
        else:
            with open(metrics_path, "r", encoding="utf-8") as fh:
                layers = json.load(fh)
            layers["trace.overhead_s"] = traced.wall_s - statistics.median(r.wall_s for r in runs)

    return Result(
        correct=failed == 0 and (not trace or layers is not None),
        attempted=attempted,
        failed=failed,
        runs=runs,
        wall_rel=relative([r.wall_s for r in runs], [y.wall_s for y in yardsticks]),
        cpu_rel=relative([r.cpu_s for r in runs], [y.cpu_s for y in yardsticks]),
        problems=problems,
        setup_wall=setup_wall,
        setup_times=setup_times,
        layers=layers,
    )


def report(name: str, seed: int, result: Result, trace: bool) -> dict:
    """Print every metric by name with its unit; return the final JSON object."""
    n = len(result.runs)
    print(f"workload {name}  seed {seed}  timed runs {n}  closed loop, 1 client")
    print(f"  error_rate    {result.failed / result.attempted:.4f}  ({result.failed}/{result.attempted} runs failed)")
    samples = {
        "wall_rel": result.wall_rel,
        "cpu_rel": result.cpu_rel,
        "peak_rss_mb": [r.peak_rss_mb for r in result.runs],
        "setup_s": result.setup_times,
        "wall_s": [r.wall_s for r in result.runs],
        "cpu_s": [r.cpu_s for r in result.runs],
        "setup_wall_s": result.setup_wall,
    }
    medians = {}
    for metric, unit in {**END_TO_END_UNITS, **RAW_UNITS}.items():
        q1, medians[metric], q3 = quartiles(samples[metric])
        print(f"  {metric:<12} {medians[metric]:12.6f} {unit:<5} q1 {q1:.6f}  q3 {q3:.6f}  n={len(samples[metric])}")
    for problem in result.problems[:20]:
        print(f"  FAILED {problem}")
    if trace:
        units = per_layer_units()
        layers = result.layers or {}
        for metric, unit in units.items():
            print(f"  {metric:<34} {layers.get(metric, float('nan')):16.6f} {unit}")
        metrics = {m: {"value": layers[m], "unit": u} for m, u in units.items() if m in layers}
    else:
        metrics = {m: {"value": medians[m], "unit": u} for m, u in END_TO_END_UNITS.items()}
    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "iocost", "cli.py")):
        print(f"error: no iocost sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    final = report(args.workload, args.seed, result, bool(args.trace))
    print(json.dumps(final))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
