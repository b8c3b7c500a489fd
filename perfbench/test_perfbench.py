"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import steady  # noqa: E402
import workloads  # noqa: E402

TINY = 0.01


@pytest.fixture(scope="module")
def tiny_results():
    return {
        name: run.run_workload(name, seed=3, seconds=0, trace=True, scale=TINY)
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_passes_every_check(tiny_results, name):
    result = tiny_results[name]
    assert result.problems == []
    assert result.correct and result.failed == 0
    assert result.attempted == len(result.runs) + 1 >= run.MIN_RUNS + 1
    units = run.per_layer_units()
    assert set(result.layers) == set(units)
    final = run.report(name, 3, result, trace=True)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert set(final["metrics"]) == set(units)


def test_children_run_one_at_a_time(tiny_results):
    for result in tiny_results.values():
        runs = result.runs
        assert all(a.end <= b.start for a, b in zip(runs, runs[1:]))


def test_children_use_no_more_threads_than_cores(tmp_path):
    probe = (
        "import iocost.cli, numpy\n"
        "numpy.ones((300, 300)) @ numpy.ones((300, 300))\n"
        "print([l for l in open('/proc/self/status') if l.startswith('Threads:')][0].split()[1])\n"
    )
    child = run.run_child([sys.executable, "-c", probe], str(tmp_path))
    assert child.code == 0, child.stderr
    # One client on one thread, however many cores numpy's pools would take.
    assert int(child.stdout) == 1 <= len(os.sched_getaffinity(0))


def _tiny_report(name: str, run_dir: str):
    sizes = workloads.sizes_of(name, workloads.load_spec(), TINY)
    expected = workloads.GENERATORS[name](5, run_dir, sizes)
    program, args = workloads.child_argv(name, run_dir, sizes, 5)
    child = run.run_child(program + args, run_dir)
    assert child.code == 0, child.stderr
    return expected, child


def _mutated(child, edit):
    report = json.loads(child.stdout)
    edit(report)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    return run.ChildRun(**{**child.__dict__, "stdout": text.encode()})


def _origin_plus_one(report):
    report["sections"][0]["details"]["origin_requests"] += 1


def _scan_requests_minus_one(report):
    report["sections"][0]["comparison"]["pushdown"]["requests"] -= 1


def _dip_in_curve(report):
    report["curve"][-1][1] -= 0.01


@pytest.mark.parametrize(
    "name, edit",
    [("ingest_cache", _origin_plus_one), ("scan_join", _scan_requests_minus_one),
     ("synth_sweep", _dip_in_curve)],
)
def test_planted_wrong_report_is_caught(tmp_path, name, edit):
    expected, child = _tiny_report(name, str(tmp_path))
    checker = run.OutputChecker(name, expected, str(tmp_path), stored_digest=None)
    assert checker.problems(child) == []
    assert checker.problems(_mutated(child, edit))


def test_wrong_digest_is_caught(tmp_path):
    expected, child = _tiny_report("scan_join", str(tmp_path))
    checker = run.OutputChecker("scan_join", expected, str(tmp_path), stored_digest="0" * 64)
    assert checker.problems(child) == ["stdout differs from the stored default-seed digest"]


def test_planted_wrong_child_counts_as_failed_run(monkeypatch):
    real = workloads.child_argv
    mutate = (
        "import io, json, contextlib, sys\n"
        "from iocost import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    cli.main(sys.argv[1:])\n"
        "r = json.loads(out.getvalue())\n"
        "r['sections'][0]['details']['origin_requests'] += 1\n"
        "print(json.dumps(r, sort_keys=True, indent=2))\n"
    )

    def planted(name, run_dir, sizes, seed):
        _, args = real(name, run_dir, sizes, seed)
        return [sys.executable, "-c", mutate], args

    monkeypatch.setattr(workloads, "child_argv", planted)
    result = run.run_workload("ingest_cache", seed=3, seconds=0, trace=False, scale=TINY)
    assert not result.correct
    assert result.failed == result.attempted == len(result.runs)


def test_generated_trace_uses_the_canonical_line_shape(tmp_path):
    from iocost import tracemodel

    sizes = workloads.sizes_of("ingest_cache", workloads.load_spec(), TINY)
    workloads.generate_ingest_cache(5, str(tmp_path), sizes)
    with open(tmp_path / "trace.jsonl", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    trace = tracemodel.read_trace(str(tmp_path / "trace.jsonl"))
    assert sorted(tracemodel.trace_lines(trace)) == sorted(lines)
    assert [json.loads(x)["ts_ms"] for x in lines] != sorted(json.loads(x)["ts_ms"] for x in lines)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan_join", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_relative_divides_by_the_yardstick_runs_on_either_side():
    # Time i ran between yardstick runs i and i + 1.
    assert run.relative([3.0, 6.0], [1.0, 2.0, 4.0]) == [2.0, 2.0]


def test_steadiness_verdicts():
    metrics = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]

    def runs(values):
        return [{"metrics": {"wall_s": {"value": v}}} for v in values]

    steady_sets = [runs([1.0, 1.01, 0.99, 1.0]), runs([1.02, 1.03, 1.01, 1.02])]
    assert steady.verdicts(steady_sets, metrics)["wall_s"]["agree_ok"]
    slower = [runs([1.0, 1.01, 0.99, 1.0]), runs([1.2, 1.21, 1.19, 1.2])]
    assert not steady.verdicts(slower, metrics)["wall_s"]["agree_ok"]
    faster = [runs([1.0, 1.01, 0.99, 1.0]), runs([0.8, 0.81, 0.79, 0.8])]
    assert not steady.verdicts(faster, metrics)["wall_s"]["agree_ok"]
    noisy = [runs([1.0, 2.0, 0.5, 1.5])]
    assert not steady.verdicts(noisy, metrics)["wall_s"]["spread_ok"]
