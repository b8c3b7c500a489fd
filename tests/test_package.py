"""The package namespace: each public name loads only its own module,
and each command only the modules it uses."""

import importlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import iocost
from iocost.scenario import load_scenario, render_report, run_scenario

SRC = pathlib.Path(iocost.__file__).parent.parent
SCENARIOS = SRC.parent / "scenarios"


def _env() -> dict:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_naming_two_modules_loads_only_them_and_what_they_import():
    code = (
        "import sys\n"
        "from iocost import cachesim, tracemodel\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'iocost')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [
        "iocost", "iocost.cachesim", "iocost.trace", "iocost.tracemodel", "iocost.units",
    ]


def test_the_cache_loads_only_the_request_table_and_units():
    code = (
        "import sys\n"
        "import iocost.cachesim\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'iocost')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["iocost", "iocost.cachesim", "iocost.trace", "iocost.units"]


@pytest.mark.parametrize("name", sorted(iocost._MODULE_OF))
def test_every_public_name_is_its_modules_object(name):
    module = importlib.import_module(f"iocost.{iocost._MODULE_OF[name]}")
    assert getattr(iocost, name) is getattr(module, name)
    assert name in dir(iocost)


def test_every_submodule_is_an_attribute():
    for name in iocost._SUBMODULES:
        assert getattr(iocost, name) is importlib.import_module(f"iocost.{name}")
        assert name in dir(iocost)


def test_scenario_names_tracemodels_workload_builders():
    from iocost import scenario, tracemodel

    assert scenario.read_trace is tracemodel.read_trace
    assert scenario.synthesize_trace is tracemodel.synthesize_trace
    with pytest.raises(AttributeError, match="no attribute 'write_trace'"):
        scenario.write_trace


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'simulat'"):
        iocost.simulat
    with pytest.raises(ImportError):
        from iocost import simulat  # noqa: F401


def _fresh_run(argv, cwd, status=0) -> tuple[str, set]:
    """``iocost ARGV`` in a new process that exits ``status``: its stdout and the modules it loaded."""
    code = (
        "import sys\n"
        "from iocost.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(' '.join(sys.modules), file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=_env(), capture_output=True, text=True,
    )
    assert out.returncode == status, out.stderr
    return out.stdout, set(out.stderr.split())


JOIN = ["join", "--workers", "200", "--build-bytes", "100MB", "--queries", "500000",
        "--broadcast-frac", "0.2", "--request-bytes", "10KB"]


@pytest.mark.parametrize(
    "argv,absent",
    [
        (["price", "--book", "s3-standard", "--tally", "tally.json"],
         {"numpy", "iocost.scenario", "iocost.joinplan"}),
        (JOIN, {"numpy", "iocost.tracemodel", "iocost.columnar", "iocost.cachesim"}),
        (["scenario", "run", str(SCENARIOS / "broadcast_fleet.json")],
         {"numpy", "iocost.tracemodel", "iocost.columnar", "iocost.cachesim"}),
        (["scenario", "run", str(SCENARIOS / "scan_demo.json")],
         {"iocost.tracemodel", "iocost.cachesim", "numpy.ma"}),
        (["scenario", "run", str(SCENARIOS / "scan_fleet.json")],
         {"numpy", "iocost.columnar", "iocost.trace", "iocost.tracemodel", "iocost.cachesim", "numpy.ma"}),
        (["scenario", "run", str(SCENARIOS / "cache_demo.json")],
         {"iocost.columnar", "iocost.joinplan", "numpy.ma"}),
        (["synth", "--records", "50", "--out", "t.jsonl"],
         {"iocost.scenario", "iocost.pricing", "iocost.columnar", "iocost.joinplan", "iocost.cachesim"}),
    ],
    ids=["price", "join", "broadcast_fleet", "scan_demo", "scan_fleet", "cache_demo", "synth"],
)
def test_a_command_loads_only_the_modules_it_uses(argv, absent, tmp_path):
    (tmp_path / "tally.json").write_text(json.dumps({"counts": {"get": 10}}))
    stdout, loaded = _fresh_run(argv, tmp_path)
    assert json.loads(stdout)
    assert not absent & loaded, sorted(absent & loaded)


def test_a_workload_without_a_cache_section_is_refused_before_it_is_read(tmp_path):
    doc = json.loads((SCENARIOS / "broadcast_fleet.json").read_text())
    (tmp_path / "s.json").write_text(json.dumps({**doc, "workload": {"synthesize": {"records": 10}}}))
    stdout, loaded = _fresh_run(["scenario", "run", "s.json"], tmp_path, status=2)
    assert stdout == ""
    assert not {"iocost.tracemodel", "numpy"} & loaded


def test_a_table_renders_in_a_fresh_process(tmp_path):
    path = SCENARIOS / "broadcast_fleet.json"
    stdout, loaded = _fresh_run(["scenario", "run", str(path), "--format", "table", "--annual"], tmp_path)
    expected = render_report(run_scenario(replace(load_scenario(str(path)), annual=True)), "table")
    assert stdout == expected
    assert "annual total (365 days)" in stdout and "numpy" not in loaded
