"""tools/bench.py: the summary of paired runs, and the order it runs them in."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PAIRS = [
    {"this": {"wall_rel": 1.0, "peak_rss_mb": 50.0}, "against": {"wall_rel": 2.0, "peak_rss_mb": 50.0}},
    {"this": {"wall_rel": 3.0, "peak_rss_mb": 49.0}, "against": {"wall_rel": 1.0, "peak_rss_mb": 50.0}},
    {"this": {"wall_rel": 2.0}, "against": {"wall_rel": 4.0}},
    {"this": {"wall_rel": 4.0}, "against": {"wall_rel": 5.0}},
    # A failed run has no values, so its pair counts for no metric.
    {"this": {"exit_code": 3}, "against": {"exit_code": 0, "wall_rel": 3.0}},
]


def test_summary_of_fixed_pairs():
    summary = bench.summarize(PAIRS, {"wall_rel": "lower", "peak_rss_mb": "lower", "setup_s": "lower"})
    assert summary == {
        "wall_rel": {
            "pairs": 4,
            "this": {"q1": 1.75, "median": 2.5, "q3": 3.25, "wins": 3},
            "against": {"q1": 1.75, "median": 3.0, "q3": 4.25, "wins": 1},
        },
        # The first pair ties, and a tie counts for neither side.
        "peak_rss_mb": {
            "pairs": 2,
            "this": {"q1": 49.25, "median": 49.5, "q3": 49.75, "wins": 1},
            "against": {"q1": 50.0, "median": 50.0, "q3": 50.0, "wins": 0},
        },
    }


def test_summary_wins_follow_the_better_direction():
    pairs = PAIRS[:1]
    assert bench.summarize(pairs, {"wall_rel": "higher"})["wall_rel"] == {
        "pairs": 1,
        "this": {"q1": 1.0, "median": 1.0, "q3": 1.0, "wins": 0},
        "against": {"q1": 2.0, "median": 2.0, "q3": 2.0, "wins": 1},
    }


def test_paired_runs_alternate_which_side_runs_first(monkeypatch, tmp_path, capsys):
    calls = []

    def fake_run(root, workload, seed, seconds, trace):
        calls.append((root, workload, trace))
        wall = 1.0 if root == str(ROOT) else 2.0
        return {"exit_code": 0, "metrics": {"wall_rel": {"unit": "ratio", "value": wall}}}

    monkeypatch.setattr(bench, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    other = tmp_path / "other"
    assert bench.main(["t", "--root", str(ROOT), "--against", str(other), "--pairs", "3"]) == 0
    workloads = list(json.loads((ROOT / "perfbench" / "spec.json").read_text())["workloads"])
    order = [("this", "against"), ("against", "this"), ("this", "against")]
    roots = {"this": str(ROOT), "against": str(other)}
    assert calls == [(roots[side], w, 0) for sides in order for w in workloads for side in sides]
    written = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert sorted(written["pairs"]) == sorted(workloads)
    for workload in workloads:
        assert [p["first"] for p in written["pairs"][workload]] == ["this", "against", "this"]
        wall = written["summary"][workload]["wall_rel"]
        assert (wall["this"]["wins"], wall["against"]["wins"], wall["this"]["median"]) == (3, 0, 1.0)
    lines = f"src/iocost/*.py lines  this {bench.src_lines(str(ROOT))['total']:,}  against 0\n"
    assert capsys.readouterr().out.endswith(lines + "BENCH_t.json\n")


def _fake_root(root, counts: dict) -> str:
    """A checkout whose ``src/iocost`` holds a file of ``n`` lines for each ``name: n`` of ``counts``."""
    package = root / "src" / "iocost"
    package.mkdir(parents=True)
    for name, n in counts.items():
        (package / name).write_text("x\n" * n)
    return str(root)


def test_paired_runs_print_each_file_whose_line_count_differs(monkeypatch, tmp_path, capsys):
    this = _fake_root(tmp_path / "this", {"a.py": 10, "b.py": 1200, "c.py": 5})
    against = _fake_root(tmp_path / "against", {"a.py": 10, "b.py": 1000, "d.py": 3})
    (tmp_path / "this" / "perfbench").mkdir()
    (tmp_path / "this" / "perfbench" / "spec.json").write_text(json.dumps({"workloads": {"w": {}}}))
    (tmp_path / "this" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "wall_rel", "better": "lower"}]}))
    monkeypatch.setattr(bench, "run", lambda *args: {"exit_code": 0, "metrics": {}})
    monkeypatch.chdir(tmp_path)
    assert bench.main(["t", "--root", this, "--against", against, "--pairs", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-5:] == [
        "src/iocost/b.py  this 1,200  against 1,000  +200",
        "src/iocost/c.py  this 5  against 0  +5",
        "src/iocost/d.py  this 0  against 3  -3",
        "src/iocost/*.py lines  this 1,215  against 1,013",
        "BENCH_t.json",
    ]


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench.main(["t", "--against", ".", "--pairs", "0"])
    assert excinfo.value.code == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
