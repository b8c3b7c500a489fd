"""CLI surface: exit codes, JSON output, and file handling."""

import gc
import hashlib
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iocost import cachesim, columnar, joinplan, pricing, tracemodel, units
from iocost.cli import main
from iocost.scenario import render_report, run_scenario, scenario_from_dict

LAYOUT = {
    "table": "events",
    "rows": 8,
    "columns": [
        {"name": "A", "page_bytes": 8, "value_bytes": 4},
        {"name": "B", "page_bytes": 8, "value_bytes": 4},
        {"name": "C", "page_bytes": 8, "value_bytes": 4},
    ],
}

QUERY = {
    "select": ["C"],
    "where": [
        {"col": "A", "op": ">=", "lit": 10},
        {"col": "B", "op": "<=", "lit": 9},
    ],
}

DATA = {
    "A": [10, 20, 5, 30, 25, 12, 40, 8],
    "B": [7, 10, 3, 9, 10, 2, 10, 5],
    "C": [3, 14, 15, 9, 26, 5, 35, 8],
}

JOIN_SCENARIO = {
    "price_book": "s3-standard",
    "join": {
        "queries_per_day": 500_000,
        "broadcast_fraction": 0.2,
        "workers": 200,
        "build_bytes": "100MB",
        "probe_bytes": "1GB",
        "request_bytes": "10KB",
    },
}

TWO_CLASS_BOOK = {
    "id": "flat",
    "classes": [
        {"class": "read", "kinds": ["get"], "nanousd_per_request": 3},
        {"class": "write", "kinds": ["put"], "nanousd_per_request": 5},
    ],
}


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_price_builtin_book(tmp_path, capsys):
    tally = _write(tmp_path / "tally.json", {"counts": {"get": 1_000_000}})
    out = _run_json(capsys, ["price", "--book", "s3-standard", "--tally", tally])
    assert out["nanousd"] == 400_000_000
    assert out["usd"] == "0.4"
    assert out["requests"] == 1_000_000


def test_price_book_file(tmp_path, capsys):
    book_path = _write(tmp_path / "book.json", TWO_CLASS_BOOK)
    tally = _write(tmp_path / "tally.json", {"counts": {"get": 10, "put": 2}})
    out = _run_json(capsys, ["price", "--book-file", book_path, "--tally", tally])
    assert out["price_book"] == "flat"
    assert out["nanousd"] == 40


def test_price_unknown_book_exits_2(tmp_path, capsys):
    tally = _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    assert main(["price", "--book", "nope", "--tally", tally]) == 2
    assert "error:" in capsys.readouterr().err


def test_price_book_flags_are_exclusive(tmp_path, capsys):
    tally = _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    code = main(["price", "--book", "s3-standard", "--book-file", "b.json", "--tally", tally])
    capsys.readouterr()
    assert code == 2


def test_synth_writes_deterministic_trace(tmp_path, capsys):
    a, b, c = (str(tmp_path / name) for name in ("a.jsonl", "b.jsonl", "c.jsonl"))
    out = _run_json(capsys, ["synth", "--records", "500", "--out", a])
    assert out == {"out": a, "records": 500, "seed": 0}
    _run_json(capsys, ["synth", "--records", "500", "--out", b])
    _run_json(capsys, ["synth", "--records", "500", "--seed", "9", "--out", c])
    a_bytes = (tmp_path / "a.jsonl").read_bytes()
    assert a_bytes == (tmp_path / "b.jsonl").read_bytes()
    assert a_bytes != (tmp_path / "c.jsonl").read_bytes()


def test_synth_defaults_are_the_synth_spec_defaults(tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    _run_json(capsys, ["synth", "--records", "50", "--seed", "3", "--out", str(out)])
    trace = tracemodel.synthesize_trace(tracemodel.SynthSpec(records=50), 3)
    assert out.read_text() == "".join(line + "\n" for line in tracemodel.trace_lines(trace))


def test_scan_with_data_file(tmp_path, capsys):
    out = _run_json(capsys, [
        "scan",
        "--layout", _write(tmp_path / "layout.json", LAYOUT),
        "--query", _write(tmp_path / "query.json", QUERY),
        "--data", _write(tmp_path / "data.json", DATA),
    ])
    assert out["survivors"] == 3
    assert out["mode"] == "pushdown"
    assert out["full_scan"]["requests"] == 12
    assert out["pushdown"]["requests"] < 12


def test_scan_coalesce_flag(tmp_path, capsys):
    out = _run_json(capsys, [
        "scan",
        "--layout", _write(tmp_path / "layout.json", LAYOUT),
        "--query", _write(tmp_path / "query.json", QUERY),
        "--data", _write(tmp_path / "data.json", DATA),
        "--coalesce-gap", "1KB",
    ])
    assert out["full_scan"]["requests"] == 1


def test_join_headline(capsys):
    out = _run_json(capsys, [
        "join", "--workers", "200", "--build-bytes", "100MB",
        "--queries", "500000", "--broadcast-frac", "0.2",
        "--request-bytes", "10KB",
    ])
    assert out["fleet"]["broadcast_bytes_per_day"] == 2 * 10**15
    assert out["fleet"]["broadcast_requests_per_day"] == 2 * 10**11
    assert out["fleet"]["shuffle_bytes_per_day"] == 10**13
    assert out["waste_fraction"] == "0.9950"
    assert out["per_query"]["strategy"] == "broadcast"
    assert out["per_query"]["duplicated_bytes"] == 199 * 100 * 10**6


def _byte_flag(low):
    """A byte flag's text, with or without a decimal suffix, at least ``low`` bytes."""
    return st.tuples(st.integers(low, 5000).map(str), st.sampled_from(["", "KB", "MB", "GB"])).map("".join)


# `iocost join` prints what the library's calls give for the same join:
# the per-query plan, broadcast at the fleet's width and shuffle at one
# worker, and the waste fraction at four places.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    workers=st.integers(1, 500),
    build=_byte_flag(0),
    probe=st.none() | _byte_flag(0),
    request=_byte_flag(1),
    queries=st.integers(0, 10**6),
    percent=st.integers(0, 100),
    strategy=st.sampled_from(joinplan.STRATEGIES),
)
def test_join_command_is_the_library_property(workers, build, probe, request, queries, percent,
                                              strategy, capsys):
    argv = ["join", "--workers", str(workers), "--build-bytes", build, "--request-bytes", request,
            "--queries", str(queries), "--broadcast-frac", str(percent / 100), "--strategy", strategy]
    if probe is not None:
        argv += ["--probe-bytes", probe]
    out = _run_json(capsys, argv)
    build_bytes, request_bytes = units.parse_bytes(build), units.parse_bytes(request)
    probe_bytes = 0 if probe is None else units.parse_bytes(probe)
    spec = joinplan.JoinSpec(build_bytes, probe_bytes, workers, strategy)
    fleet = {}
    for side, width in (("broadcast", workers), ("shuffle", 1)):
        nbytes = joinplan.fleet_aggregate(joinplan.FleetParams(queries, percent / 100, width, build_bytes))
        fleet[f"{side}_bytes_per_day"] = nbytes
        fleet[f"{side}_requests_per_day"] = joinplan.fleet_api_calls(nbytes, request_bytes)
    assert out == {
        "per_query": asdict(joinplan.plan_join(spec, request_bytes)),
        "fleet": fleet,
        "waste_fraction": f"{float(joinplan.waste_fraction(workers)):.4f}",
    }


JOIN_ARGS = [
    "join", "--workers", "200", "--build-bytes", "100MB", "--probe-bytes", "1GB",
    "--queries", "500000", "--broadcast-frac", "0.2", "--request-bytes", "10KB",
]
JOIN_ARGS_BIG_BUILD = [a if a != "100MB" else "200MB" for a in JOIN_ARGS]

# Full stdout of scan, join and cache on small inputs, pinned so that
# routing the commands through the scenario sections changes no byte.
PINNED = {
    "scan_data": (
        ["--data", "data.json"],
        {"full_scan": {"bytes": 96, "requests": 12}, "mode": "pushdown",
         "pushdown": {"bytes": 88, "requests": 11}, "rows": 8, "survivors": 3,
         "table": "events"},
    ),
    "scan_coalesce": (
        ["--data", "data.json", "--coalesce-gap", "1KB"],
        {"full_scan": {"bytes": 96, "requests": 1}, "mode": "pushdown",
         "pushdown": {"bytes": 88, "requests": 1}, "rows": 8, "survivors": 3,
         "table": "events"},
    ),
    "scan_synthesized": (
        ["--seed", "3"],
        {"full_scan": {"bytes": 96, "requests": 12}, "mode": "pushdown",
         "pushdown": {"bytes": 72, "requests": 9}, "rows": 8, "survivors": 1,
         "table": "events"},
    ),
    "join_broadcast": (
        JOIN_ARGS,
        {"fleet": {"broadcast_bytes_per_day": 2_000_000_000_000_000,
                   "broadcast_requests_per_day": 200_000_000_000,
                   "shuffle_bytes_per_day": 10_000_000_000_000,
                   "shuffle_requests_per_day": 1_000_000_000},
         "per_query": {"duplicated_bytes": 19_900_000_000, "network_bytes": 0,
                       "requests": 2_100_000, "storage_bytes": 21_000_000_000,
                       "strategy": "broadcast"},
         "waste_fraction": "0.9950"},
    ),
    "join_auto_picks_shuffle": (
        JOIN_ARGS_BIG_BUILD + ["--strategy", "auto"],
        {"fleet": {"broadcast_bytes_per_day": 4_000_000_000_000_000,
                   "broadcast_requests_per_day": 400_000_000_000,
                   "shuffle_bytes_per_day": 20_000_000_000_000,
                   "shuffle_requests_per_day": 2_000_000_000},
         "per_query": {"duplicated_bytes": 0, "network_bytes": 1_200_000_000,
                       "requests": 120_000, "storage_bytes": 1_200_000_000,
                       "strategy": "shuffle"},
         "waste_fraction": "0.9950"},
    ),
    "join_shuffle": (
        JOIN_ARGS + ["--strategy", "shuffle"],
        {"fleet": {"broadcast_bytes_per_day": 2_000_000_000_000_000,
                   "broadcast_requests_per_day": 200_000_000_000,
                   "shuffle_bytes_per_day": 10_000_000_000_000,
                   "shuffle_requests_per_day": 1_000_000_000},
         "per_query": {"duplicated_bytes": 0, "network_bytes": 1_100_000_000,
                       "requests": 110_000, "storage_bytes": 1_100_000_000,
                       "strategy": "shuffle"},
         "waste_fraction": "0.9950"},
    ),
    "cache": (
        ["cache", "--trace", "t.jsonl", "--capacity", "5KB", "--block", "1KB"],
        {"config": {"block_bytes": 1000, "capacity_bytes": 5000,
                    "effective_capacity_bytes": 5000, "fetch": "per-run", "policy": "lru"},
         "report": {"hit_ratio": 0.1388888888888889, "hits": 5, "misses": 31,
                    "origin_bytes": 31000, "origin_requests": 12,
                    "read_amplification": 1.0333333333333334, "requested_bytes": 30000,
                    "requests_served": 12}},
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_stdout(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, payload in (("layout.json", LAYOUT), ("query.json", QUERY), ("data.json", DATA)):
        _write(tmp_path / name, payload)
    lines = [
        json.dumps({"ts_ms": i, "obj": "x" if i % 3 else "y", "off": (i % 4) * 1500,
                    "len": 2500, "kind": "get"})
        for i in range(12)
    ]
    (tmp_path / "t.jsonl").write_text("\n".join(lines) + "\n")
    argv, expected = PINNED[case]
    if case.startswith("scan"):
        argv = ["scan", "--layout", "layout.json", "--query", "query.json"] + argv
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(expected, sort_keys=True, indent=2) + "\n"


# Full stdout of price, one case per book source: the book's id and
# the tally's requests, bytes and cost, and no other key.
PINNED_PRICE = {
    "builtin_book": (
        ["--book", "s3-standard"],
        {"counts": {"get": 1_000, "put": 10}, "bytes": {"get": 5_000_000, "put": 2_000}},
        '{\n  "bytes": 5002000,\n  "nanousd": 450000,\n  "price_book": "s3-standard",\n'
        '  "requests": 1010,\n  "usd": "0.00045"\n}\n',
    ),
    "book_file": (
        ["--book-file", "book.json"],
        {"counts": {"get": 10, "put": 2}, "bytes": {"get": 700}},
        '{\n  "bytes": 700,\n  "nanousd": 40,\n  "price_book": "flat",\n'
        '  "requests": 12,\n  "usd": "0.00000004"\n}\n',
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_PRICE))
def test_pinned_price_stdout(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "book.json", TWO_CLASS_BOOK)
    flags, tally, expected = PINNED_PRICE[case]
    _write(tmp_path / "tally.json", tally)
    assert main(["price", *flags, "--tally", "tally.json"]) == 0
    assert capsys.readouterr().out == expected


def test_scan_data_with_non_integer_value_exits_2(tmp_path, capsys):
    data = {**DATA, "A": [10, 20, 5, "x", 25, 12, 40, 8]}
    code = main([
        "scan",
        "--layout", _write(tmp_path / "layout.json", LAYOUT),
        "--query", _write(tmp_path / "query.json", QUERY),
        "--data", _write(tmp_path / "data.json", data),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_scan_data_with_unknown_column_exits_2(tmp_path, capsys):
    layout = {"table": "t", "rows": 2, "columns": [{"name": "A", "page_bytes": 8, "value_bytes": 4}]}
    code = main([
        "scan",
        "--layout", _write(tmp_path / "layout.json", layout),
        "--query", _write(tmp_path / "query.json", {"select": ["A"]}),
        "--data", _write(tmp_path / "data.json", {"A": [1, 2], "Zz": [1]}),
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario field 'scan.data.Zz': table 't' has no such column\n"


def test_scan_negative_seed_exits_2(tmp_path, capsys):
    code = main([
        "scan",
        "--layout", _write(tmp_path / "layout.json", LAYOUT),
        "--query", _write(tmp_path / "query.json", QUERY),
        "--seed", "-1",
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scenario field 'seed': must be >= 0, got -1\n"


@pytest.mark.parametrize("value", ["inf", "1e400"])
def test_unbounded_byte_flag_exits_2(value, capsys):
    argv = [a if a != "100MB" else value for a in JOIN_ARGS]
    assert main(argv) == 2
    assert "scenario field 'join.build_bytes'" in capsys.readouterr().err


def test_runtime_fault_exits_3(monkeypatch, capsys):
    def fault(*args, **kwargs):
        raise RuntimeError("planner fault")

    monkeypatch.setattr(joinplan, "plan_join", fault)
    assert main(JOIN_ARGS) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "runtime error: planner fault\n"


def test_runtime_fault_without_text_names_its_type(monkeypatch, capsys):
    def fault(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(joinplan, "plan_join", fault)
    assert main(JOIN_ARGS) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "runtime error: MemoryError\n"


def test_pricing_fault_keeps_its_section_prefix(monkeypatch, capsys):
    def fault(self, tally):
        raise ValueError("boom")

    monkeypatch.chdir(SCENARIOS.parent)
    monkeypatch.setattr(pricing.PriceBook, "cost_of", fault)
    assert main(["scenario", "run", "scenarios/broadcast_fleet.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: section 'join': boom\n"


def test_cache_over_trace_file(tmp_path, capsys):
    lines = [
        json.dumps({"ts_ms": i, "obj": "x", "off": 0, "len": 1000, "kind": "get"})
        for i in range(4)
    ]
    trace = tmp_path / "t.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    out = _run_json(capsys, [
        "cache", "--trace", str(trace), "--capacity", "1MB", "--block", "1KB",
    ])
    assert out["report"]["requests_served"] == 4
    assert out["report"]["origin_requests"] == 1
    assert out["report"]["hits"] == 3
    assert out["config"]["block_bytes"] == 1000


def test_scenario_run_json(tmp_path, capsys):
    path = _write(tmp_path / "s.json", JOIN_SCENARIO)
    out = _run_json(capsys, ["scenario", "run", path])
    assert out["totals"]["usd"] == "80000"
    assert out["sections"][0]["name"] == "join"
    assert "annual_totals" not in out


def test_scenario_run_annual_table(tmp_path, capsys):
    path = _write(tmp_path / "s.json", JOIN_SCENARIO)
    assert main(["scenario", "run", path, "--format", "table", "--annual"]) == 0
    text = capsys.readouterr().out
    assert "$80,000" in text
    assert "annual total (365 days): $29,200,000" in text


def test_scenario_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["scenario", "run", str(tmp_path / "none.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_byte_suffix_exits_2(tmp_path, capsys):
    trace = _write(tmp_path / "t.jsonl", {})
    code = main(["cache", "--trace", trace, "--capacity", "5XB"])
    capsys.readouterr()
    assert code == 2


def test_invalid_trace_content_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text("not json\n")
    assert main(["cache", "--trace", str(trace), "--capacity", "1MB"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "record,key",
    [
        ({"ts_ms": 1, "obj": "a", "kind": "head", "offset": 5}, "offset"),
        ({"ts_ms": 1, "obj": "a", "off": 0, "len": 10, "kind": "get", "lenght": 99}, "lenght"),
    ],
)
def test_trace_line_with_unknown_field_exits_2(record, key, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps(record) + "\n")
    assert main(["cache", "--trace", str(trace), "--capacity", "1MB"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: unknown field '{key}'" in captured.err


def test_trace_line_beyond_int64_exits_2(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    lines = [
        {"ts_ms": 1, "obj": "a", "off": 0, "len": 10, "kind": "get"},
        {"ts_ms": 2, "obj": "a", "off": 2**63 - 5, "len": 10, "kind": "get"},
    ]
    trace.write_text("".join(json.dumps(r) + "\n" for r in lines))
    assert main(["cache", "--trace", str(trace), "--capacity", "1MB"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 2: offset + length must be <= 2**63 - 1" in captured.err


@pytest.mark.parametrize("command", ["cache", "scenario"])
def test_trace_past_the_touch_bound_exits_2(command, tmp_path, monkeypatch, capsys):
    # 10**12 one-byte blocks in one get: refused before any is expanded
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"ts_ms": 1, "obj": "a", "off": 0, "len": 10**12, "kind": "get"}) + "\n"
    )
    _write(tmp_path / "s.json", {
        "price_book": "s3-standard",
        "workload": {"trace": "t.jsonl"},
        "cache": {"capacity_bytes": 0, "block_bytes": 1},
    })
    monkeypatch.chdir(tmp_path)
    argv = {
        "cache": ["cache", "--trace", "t.jsonl", "--capacity", "0", "--block", "1"],
        "scenario": ["scenario", "run", "s.json"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: section 'cache': the trace's gets touch more than 100,000,000 blocks of 1 bytes;"
        " use a larger block size\n"
    )


@pytest.mark.parametrize("block", ["1e21", str(2**63)])
@pytest.mark.parametrize("command", ["cache", "scenario"])
def test_block_past_int64_holds_each_object(command, block, tmp_path, monkeypatch, capsys):
    # every byte a trace can address lies in block 0 of its object
    gets = [("a", 0, 10), ("b", 5, 2**40), ("a", 2**62, 100)]
    (tmp_path / "t.jsonl").write_text("".join(
        json.dumps({"ts_ms": i, "obj": obj, "off": off, "len": length, "kind": "get"}) + "\n"
        for i, (obj, off, length) in enumerate(gets)
    ))
    _write(tmp_path / "s.json", {
        "price_book": "s3-standard",
        "workload": {"trace": "t.jsonl"},
        "cache": {"capacity_bytes": "1GB", "block_bytes": block},
    })
    monkeypatch.chdir(tmp_path)
    if command == "cache":
        argv = ["cache", "--trace", "t.jsonl", "--capacity", "1GB", "--block", block]
        report = _run_json(capsys, argv)["report"]
    else:
        report = _run_json(capsys, ["scenario", "run", "s.json"])["sections"][0]["details"]
        assert report["distinct_blocks"] == 2
    assert report["misses"] == report["requests_served"] == len(gets)
    assert report["origin_bytes"] == len(gets) * units.parse_bytes(block)


_CACHE_RECORDS = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "put"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 3000),
        st.integers(1, 2000),
    ),
    min_size=1,
    max_size=16,
)
_CONFIG_KEYS = ("capacity_bytes", "effective_capacity_bytes", "block_bytes")


# `iocost cache`, the scenario's cache section and a direct `simulate`
# call report the same counters, the footprint included.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(recs=_CACHE_RECORDS, block=st.sampled_from(["1", "7", "500", "1KB", "1e21"]), data=st.data())
def test_cache_command_is_the_scenario_section_property(recs, block, data, tmp_path, capsys):
    trace = tracemodel.Trace(tuple(
        tracemodel.AccessRecord(i, obj, off, length, kind)
        for i, (kind, obj, off, length) in enumerate(recs)
    ))
    path = str(tmp_path / "t.jsonl")
    tracemodel.write_trace(trace, path)
    block_bytes = units.parse_bytes(block)
    # Whole blocks from none to past the footprint, often only a few, plus a part of a block.
    footprint = cachesim.distinct_blocks(trace, block_bytes)
    blocks = data.draw(st.integers(0, 4) | st.integers(0, footprint + 2))
    capacity = min(units.MAX_BYTES, blocks * block_bytes + data.draw(st.sampled_from([0, 1, block_bytes - 1])))
    out = _run_json(capsys, ["cache", "--trace", path, "--capacity", str(capacity), "--block", block])
    scenario_file = _write(tmp_path / "s.json", {
        "price_book": "s3-standard",
        "workload": {"trace": path},
        "cache": {"capacity_bytes": capacity, "block_bytes": block},
    })
    details = _run_json(capsys, ["scenario", "run", scenario_file])["sections"][0]["details"]
    expected = cachesim.simulate(trace, cachesim.CacheConfig(capacity, block_bytes)).to_dict()
    assert expected.pop("distinct_blocks") == footprint == details["distinct_blocks"]
    assert out["report"] == expected
    assert out["report"] == {
        key: value for key, value in details.items()
        if key not in (*_CONFIG_KEYS, "distinct_blocks", "workload")
    }
    assert out["config"] == {
        **{key: details[key] for key in _CONFIG_KEYS}, "policy": "lru", "fetch": "per-run",
    }


# Every numeric or byte flag of synth, scan, join and cache, each given
# malformed, boundary and huge values; a repeated flag takes its last
# value, so each case appends one flag to a valid command line.
FUZZ_FLAGS = (
    [("synth", flag) for flag in (
        "--records", "--seed", "--p50", "--p90", "--max", "--min-bytes", "--objects", "--zipf",
        "--duration-ms",
    )]
    + [("scan", "--coalesce-gap"), ("scan", "--seed")]
    + [("join", flag) for flag in (
        "--workers", "--build-bytes", "--probe-bytes", "--queries", "--broadcast-frac",
        "--request-bytes",
    )]
    + [("cache", "--capacity"), ("cache", "--block")]
)
FUZZ_VALUES = ["-1", "0", "x", "1.5", "nan", "inf", "1e400", "1e21", str(2**63), str(10**30)]


@pytest.mark.parametrize("value", FUZZ_VALUES)
@pytest.mark.parametrize("command,flag", FUZZ_FLAGS)
def test_numeric_flags_exit_0_or_2(command, flag, value, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "layout.json", LAYOUT)
    _write(tmp_path / "query.json", QUERY)
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"ts_ms": 1, "obj": "a", "off": 0, "len": 1000, "kind": "get"}) + "\n"
    )
    argv = {
        "synth": ["synth", "--records", "5", "--out", "out.jsonl"],
        "scan": ["scan", "--layout", "layout.json", "--query", "query.json"],
        "join": JOIN_ARGS,
        "cache": ["cache", "--trace", "t.jsonl", "--capacity", "1GB"],
    }[command]
    code = main(argv + [flag, value])
    captured = capsys.readouterr()
    assert code in (0, 2), captured.err
    assert "Traceback" not in captured.out + captured.err
    if code == 2:
        assert captured.out == ""


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "iocost" in capsys.readouterr().out


def test_no_command_exits_2(capsys):
    code = main([])
    capsys.readouterr()
    assert code == 2

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# SHA-256 of the stdout of `scenario run` on each bundled scenario, taken
# before the scenario parser moved onto field tables; a parser change must
# not move a byte of any report.
REPORT_DIGESTS = {
    ("broadcast_fleet.json", "json"):
        "b18ecf0133a7dd0fd1f2dd6f8aa4e267a9e3a6e96333cb46f022c59c5e11b204",
    ("broadcast_fleet.json", "table"):
        "0f435477941f44b6ccab723391b8c506f2ffb5e9a8a465a7ea9a0ec5716f3a38",
    ("cache_demo.json", "json"):
        "26612050171def603774981bde11896ecf1bdf0d7e35b50544b99112a3f4c2d1",
    ("cache_demo.json", "table"):
        "cff38d9fe6ad05a9b6fde9e2bf45d0b1fd2deaaf481d0b469e3fae806aea8e15",
    ("scan_demo.json", "json"):
        "ca37398f9d45e3837682d5565c9d83ea6366f5b444643eb6d8091d1751cb3ef3",
    ("scan_demo.json", "table"):
        "be9c6210f1ca80abffe8b506848d10e25d02426d3d98a0f3417ddd801ffcc329",
    ("scan_fleet.json", "json"):
        "52828750cea5032fdf341ed281de92530c748c1915285d2ba7887f96ff373d96",
    ("scan_fleet.json", "table"):
        "ba8fcf23b0a3d30cf323d39ceb28d4cac7ce0ba75782f60cba2673bfd9bf8f8a",
}


@pytest.mark.parametrize("name,fmt", sorted(REPORT_DIGESTS))
def test_bundled_reports_are_pinned(name, fmt, capsys):
    argv = ["scenario", "run", str(SCENARIOS / name), "--format", fmt]
    assert main(argv + (["--annual"] if fmt == "table" else [])) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_DIGESTS[(name, fmt)]


def test_bundled_reports_cover_every_scenario():
    assert {name for name, _ in REPORT_DIGESTS} == {p.name for p in SCENARIOS.glob("*.json")}


@pytest.mark.parametrize("name", sorted({name for name, _ in REPORT_DIGESTS}))
def test_an_annual_run_echoes_the_scenario_it_ran(name, capsys):
    # --annual on a file without "annual": true: the echo alone must reproduce the report.
    assert main(["scenario", "run", str(SCENARIOS / name), "--annual"]) == 0
    stdout = capsys.readouterr().out
    echo = json.loads(stdout)["scenario"]
    assert echo["annual"] is True
    rerun = run_scenario(scenario_from_dict(echo, base_dir=str(SCENARIOS)))
    assert render_report(rerun, "json") == stdout


SCAN_SCENARIO = {"price_book": "s3-standard", "scan": {"layout": LAYOUT, "query": QUERY}}


@pytest.mark.parametrize(
    "raw,path",
    [
        ({**SCAN_SCENARIO, "scan": {**SCAN_SCENARIO["scan"], "coalesce-gap": "1KB"}},
         "'scan.coalesce-gap'"),
        ({**JOIN_SCENARIO, "join": {**JOIN_SCENARIO["join"], "strateg": "shuffle"}},
         "'join.strateg'"),
    ],
    ids=["scan-coalesce-gap", "join-strateg"],
)
def test_misspelled_scenario_field_exits_2(raw, path, tmp_path, capsys):
    assert main(["scenario", "run", _write(tmp_path / "s.json", raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert path in captured.err and "unknown fields" in captured.err


def _synthesizing(**synthesize):
    """A cache scenario over a 5-record synthesized trace."""
    return {
        "price_book": "s3-standard",
        "workload": {"synthesize": {"records": 5, **synthesize}},
        "cache": {"capacity_bytes": "1GB"},
    }


@pytest.mark.parametrize(
    "raw,path",
    [
        (_synthesizing(zipf_exponent=10**400), "'workload.synthesize.zipf_exponent'"),
        (_synthesizing(anchors=[["1MB", 10**400]]), "'workload.synthesize.anchors[0][1]'"),
        ({"price_book": "s3-standard",
          "scan_fleet": {"daily_bytes": "10PB", "avg_request_bytes": "10KB", "inflation": 10**400,
                         "page_bytes": "1MB"}},
         "'scan_fleet.inflation'"),
    ],
    ids=["zipf-exponent", "anchor-fraction", "inflation"],
)
def test_number_past_the_float_range_exits_2(raw, path, tmp_path, capsys):
    assert main(["scenario", "run", _write(tmp_path / "s.json", raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"scenario field {path}: must be a finite number" in captured.err


def test_oversized_layout_exits_2(tmp_path, capsys):
    layout = {**LAYOUT, "rows": 10**9}
    raw = {**SCAN_SCENARIO, "scan": {**SCAN_SCENARIO["scan"], "layout": layout}}
    assert main(["scenario", "run", _write(tmp_path / "s.json", raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario field 'scan.layout'" in captured.err and "exceeds the limit" in captured.err


def test_layout_with_too_many_pages_exits_2(tmp_path, capsys, monkeypatch):
    # 10**7 one-value pages: within the value limit, over the page limit
    # the refusal comes at load: synthesizing data or planning would fail
    monkeypatch.setattr(columnar, "synthesize_column_data", None)
    monkeypatch.setattr(columnar, "plan_scan", None)
    layout = {"table": "t", "rows": 10**7, "columns": [
        {"name": "A", "page_bytes": 8, "value_bytes": 8},
    ]}
    raw = {**SCAN_SCENARIO, "scan": {**SCAN_SCENARIO["scan"], "layout": layout,
                                     "query": {"select": ["A"]}}}
    assert main(["scenario", "run", _write(tmp_path / "s.json", raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario field 'scan.layout'" in captured.err
    assert "10000000 pages, more than the limit of 1000000" in captured.err


QUERY_AB = {"select": ["B"], "where": [{"col": "A", "op": "<", "lit": 50}]}


def _huge_value_layout(value_bytes):
    return {"table": "t", "rows": 10, "columns": [
        {"name": n, "page_bytes": value_bytes, "value_bytes": value_bytes} for n in "AB"
    ]}


def _scan_argv(command, tmp_path, layout, *gap):
    if command == "scan":
        argv = ["scan", "--layout", _write(tmp_path / "layout.json", layout),
                "--query", _write(tmp_path / "query.json", QUERY_AB)]
        return argv + (["--coalesce-gap", gap[0]] if gap else [])
    section = {"layout": layout, "query": QUERY_AB}
    if gap:
        section["coalesce_gap"] = gap[0]
    return ["scenario", "run", _write(tmp_path / "s.json", {**SCAN_SCENARIO, "scan": section})]


@pytest.mark.parametrize("command", ["scan", "scenario"])
def test_layout_past_int64_bytes_exits_2(command, tmp_path, capsys):
    # 10 rows x 2 columns of 1e18-byte values: 2e19 file bytes
    assert main(_scan_argv(command, tmp_path, _huge_value_layout("1e18"))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scenario field 'scan.layout'" in captured.err
    assert "20000000000000000000 bytes, more than the limit of 9223372036854775807" in captured.err


@pytest.mark.parametrize("command", ["scan", "scenario"])
def test_coalesce_gap_past_int64_merges_every_read(command, tmp_path, capsys):
    # 8e18 file bytes, within int64; a 1e21 gap folds each plan into one read
    out = _run_json(capsys, _scan_argv(command, tmp_path, _huge_value_layout("4e17"), "1e21"))
    if command == "scenario":
        out = out["sections"][0]["comparison"]
    assert (out["full_scan"]["bytes"], out["full_scan"]["requests"]) == (8 * 10**18, 1)
    assert out["pushdown"]["requests"] == 1


def test_misspelled_price_book_class_field_exits_2(tmp_path, capsys):
    book = {"id": "flat", "classes": [
        {"class": "read", "kinds": ["get"], "nanousd_per_request": 3, "lable": "Reads"},
    ]}
    tally = _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    assert main(["price", "--book-file", _write(tmp_path / "b.json", book), "--tally", tally]) == 2
    assert "price book field 'classes[0].lable'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tally,path",
    [
        ({"counts": {"get": 1}, "bytes": 5}, "'bytes'"),
        ({"counts": [1]}, "'counts'"),
        ({"count": {"get": 1}}, "'count'"),
        ({"counts": {"get": "x"}}, "kind 'get'"),
    ],
)
def test_malformed_tally_exits_2(tally, path, tmp_path, capsys):
    name = _write(tmp_path / "t.json", tally)
    code = main(["price", "--book", "s3-standard", "--tally", name])
    assert code == 2
    err = capsys.readouterr().err
    assert path in err
    assert f"tally file {name}" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["price", "--book", "s3-standard", "--tally", "DIR"], "tally file not found: DIR"),
        (["price", "--book-file", "DIR", "--tally", "tally.json"], "price book file not found: DIR"),
        (["cache", "--trace", "DIR", "--capacity", "1MB"],
         "scenario field 'workload.trace': file not found: {cwd}/DIR"),
        (["scan", "--layout", "layout.json", "--query", "query.json", "--data", "DIR"],
         "scenario field 'scan.data': file not found: {cwd}/DIR"),
    ],
    ids=["price-tally", "price-book-file", "cache-trace", "scan-data"],
)
def test_directory_path_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "DIR").mkdir()
    _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    _write(tmp_path / "layout.json", LAYOUT)
    _write(tmp_path / "query.json", QUERY)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cwd=os.getcwd())}\n"


NOT_A_DIRECTORY = "[Errno 20] Not a directory: 'f.json/x'"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["price", "--book", "s3-standard", "--tally", "f.json/x"], "tally file not found: f.json/x"),
        (["price", "--book-file", "f.json/x", "--tally", "f.json"], "price book file not found: f.json/x"),
        # scan.data is a file field like scan.layout: a path that is not a file is not found
        (["scan", "--layout", "layout.json", "--query", "query.json", "--data", "f.json/x"],
         "scenario field 'scan.data': file not found: {cwd}/f.json/x"),
        (["synth", "--records", "5", "--out", "f.json/x"], NOT_A_DIRECTORY),
    ],
    ids=["price-tally", "price-book-file", "scan-data", "synth-out"],
)
def test_path_through_a_regular_file_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "f.json", {"counts": {"get": 1}})
    _write(tmp_path / "layout.json", LAYOUT)
    _write(tmp_path / "query.json", QUERY)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cwd=os.getcwd())}\n"


def _src_env(env) -> dict:
    """``env`` with this checkout's ``src`` first on PYTHONPATH."""
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


NOT_A_FILE_ARGV = {
    "price-tally": (["price", "--book", "s3-standard", "--tally", "{path}"], "tally file not found: {path}"),
    "price-book-file": (["price", "--book-file", "{path}", "--tally", "tally.json"],
                        "price book file not found: {path}"),
    "scenario": (["scenario", "run", "{path}"], "scenario file not found: {path}"),
}


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
@pytest.mark.parametrize("name", sorted(NOT_A_FILE_ARGV))
def test_a_fifo_input_exits_2_without_opening_it(name, tmp_path):
    # Opening a FIFO that no process writes blocks, so the run is a
    # process with a timeout: a hang fails the test instead of stalling it.
    os.mkfifo(tmp_path / "F")
    _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    argv, message = NOT_A_FILE_ARGV[name]
    proc = subprocess.run(
        [sys.executable, "-m", "iocost.cli", *(a.format(path="F") for a in argv)],
        capture_output=True, text=True, env=_src_env(os.environ), cwd=tmp_path, timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message.format(path='F')}\n")


@pytest.mark.parametrize("name", sorted(NOT_A_FILE_ARGV))
def test_a_device_input_exits_2_without_reading_it(name, tmp_path, monkeypatch, capsys):
    # /dev/null reads as an empty file, and /dev/zero would read without end.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    argv, message = NOT_A_FILE_ARGV[name]
    assert main([a.format(path=os.devnull) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=os.devnull)}\n"


# Every command hands its byte flags to a scenario field table as text,
# so a refusal names the field and gives parse_bytes' reason.
@pytest.mark.parametrize(
    "command,flag,field",
    [
        ("scan", "--coalesce-gap", "scan.coalesce_gap"),
        ("join", "--build-bytes", "join.build_bytes"),
        ("join", "--probe-bytes", "join.probe_bytes"),
        ("join", "--request-bytes", "join.request_bytes"),
        ("cache", "--capacity", "cache.capacity_bytes"),
        ("cache", "--block", "cache.block_bytes"),
        ("synth", "--p50", "workload.synthesize.anchors[0][0]"),
        ("synth", "--max", "workload.synthesize.anchors[2][0]"),
        ("synth", "--min-bytes", "workload.synthesize.min_bytes"),
    ],
)
def test_byte_flag_refusal_names_the_scenario_field(command, flag, field, tmp_path, monkeypatch, capsys):
    _assert_flag_refused(
        command, flag, "1.5B", f"scenario field {field!r}: byte count is not a whole number of bytes: '1.5B'",
        tmp_path, monkeypatch, capsys,
    )


# The integer and float flags go to the field tables as JSON numbers, or
# as text when they are not one, so a malformed value names the field too.
NUMBER_FLAG_REFUSALS = [
    ("synth", "--records", "1.5", "'workload.synthesize.records': must be an integer, got 1.5"),
    ("synth", "--seed", "1.5", "'seed': must be an integer, got 1.5"),
    ("synth", "--objects", "1e3", "'workload.synthesize.objects': must be an integer, got 1000.0"),
    ("synth", "--zipf", "x", "'workload.synthesize.zipf_exponent': must be a finite number, got 'x'"),
    ("synth", "--duration-ms", "true", "'workload.synthesize.duration_ms': must be an integer, got 'true'"),
    ("scan", "--seed", "1.5", "'seed': must be an integer, got 1.5"),
    ("join", "--workers", "1.5", "'join.workers': must be an integer, got 1.5"),
    ("join", "--queries", "[1]", "'join.queries_per_day': must be an integer, got '[1]'"),
    ("join", "--broadcast-frac", "0.2x", "'join.broadcast_fraction': must be a finite number, got '0.2x'"),
]


@pytest.mark.parametrize(
    "command,flag,value,refusal", NUMBER_FLAG_REFUSALS, ids=[c + f for c, f, _, _ in NUMBER_FLAG_REFUSALS]
)
def test_number_flag_refusal_names_the_scenario_field(
    command, flag, value, refusal, tmp_path, monkeypatch, capsys
):
    _assert_flag_refused(command, flag, value, f"scenario field {refusal}", tmp_path, monkeypatch, capsys)


def test_strategy_outside_its_choices_is_refused_by_its_field(tmp_path, monkeypatch, capsys):
    _assert_flag_refused(
        "join", "--strategy", "merge",
        "scenario field 'join.strategy': must be one of ['broadcast', 'shuffle', 'auto'], got 'merge'",
        tmp_path, monkeypatch, capsys,
    )


def test_join_help_lists_the_strategies(capsys):
    assert main(["join", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--strategy {broadcast,shuffle,auto}" in out
    assert f"--strategy {{{','.join(joinplan.STRATEGIES)}}}" in out


def _assert_flag_refused(command, flag, value, message, tmp_path, monkeypatch, capsys):
    """A valid command line plus ``flag value`` exits 2 printing only ``error: message``."""
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "layout.json", LAYOUT)
    _write(tmp_path / "query.json", QUERY)
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"ts_ms": 1, "obj": "a", "off": 0, "len": 1000, "kind": "get"}) + "\n"
    )
    argv = {
        "scan": ["scan", "--layout", "layout.json", "--query", "query.json"],
        "join": JOIN_ARGS,
        "cache": ["cache", "--trace", "t.jsonl", "--capacity", "1GB"],
        "synth": ["synth", "--records", "10", "--out", "s.jsonl"],
    }[command]
    assert main(argv + [flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "s.jsonl").exists()


def _scenario_over_a_trace(tmp_path, monkeypatch, **sections) -> str:
    """A scenario file with a cache section over a trace that must not be read."""
    def refuse(path):
        raise AssertionError(f"trace {path} was read")

    monkeypatch.setattr(tracemodel, "read_trace", refuse)
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"ts_ms": 1, "obj": "a", "off": 0, "len": 1000, "kind": "get"}) + "\n"
    )
    raw = {
        "price_book": "s3-standard",
        "workload": {"trace": "t.jsonl"},
        "cache": {"capacity_bytes": "1MB"},
        **sections,
    }
    return _write(tmp_path / "s.json", raw)


def test_price_book_that_cannot_price_get_is_refused_before_the_trace_is_read(
    tmp_path, monkeypatch, capsys
):
    book = {"id": "w", "classes": [{"class": "write", "kinds": ["put"], "nanousd_per_request": 5}]}
    _write(tmp_path / "book.json", book)
    path = _scenario_over_a_trace(tmp_path, monkeypatch, price_book={"file": "book.json"})
    assert main(["scenario", "run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: scenario field 'price_book': price book 'w' cannot classify request kind 'get'\n"
    )


@pytest.mark.parametrize(
    "query,data,message",
    [
        ({"select": ["Z"]}, None,
         "scenario field 'scan.query': unknown column 'Z' (table 'events' has: A, B, C)"),
        ({"select": [], "where": [{"col": "Z", "op": ">", "lit": 1}]}, None,
         "scenario field 'scan.query': unknown column 'Z' (table 'events' has: A, B, C)"),
        ({"select": []}, None,
         "scenario field 'scan.query': scan references no columns (empty projection with no predicates)"),
        (QUERY, {"A": DATA["A"], "B": DATA["B"]}, "section 'scan': no data supplied for column 'C'"),
    ],
    ids=["select-unknown", "where-unknown", "no-column", "data-lacks-column"],
)
def test_scan_query_fault_is_refused_before_the_trace_is_read(
    query, data, message, tmp_path, monkeypatch, capsys
):
    path = _scenario_over_a_trace(
        tmp_path, monkeypatch, scan={"layout": LAYOUT, "query": query, "data": data},
    )
    assert main(["scenario", "run", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# The cache command's scenario section checks its trace path and block
# size, so its refusals name the scenario field.
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--trace", "none.jsonl"], "scenario field 'workload.trace': file not found: {cwd}/none.jsonl"),
        (["--block", "0"], "scenario field 'cache.block_bytes': must be >= 1, got 0"),
    ],
    ids=["missing-trace", "zero-block"],
)
def test_cache_refusal_names_the_scenario_field(flags, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.jsonl").write_text(
        json.dumps({"ts_ms": 1, "obj": "a", "off": 0, "len": 1000, "kind": "get"}) + "\n"
    )
    assert main(["cache", "--trace", "t.jsonl", "--capacity", "1MB"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(cwd=os.getcwd())}\n"


@pytest.mark.parametrize("flags", [["--zipf", "nan"], ["--zipf", "inf"], ["--objects", "10000001"]])
def test_synth_refuses_bad_parameters(flags, tmp_path, capsys):
    out = tmp_path / "t.jsonl"
    assert main(["synth", "--records", "10", "--out", str(out)] + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "field,value,problem",
    [
        ("kind", ["get"], "unknown request kind ['get']"),
        ("kind", {"get": 1}, "unknown request kind {'get': 1}"),
        ("obj", ["a"], "field 'obj' must be a string, got ['a']"),
        ("obj", {"a": 1}, "field 'obj' must be a string, got {'a': 1}"),
    ],
    ids=["kind-array", "kind-object", "obj-array", "obj-object"],
)
def test_trace_line_with_array_or_object_value_exits_2(field, value, problem, tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    record = {"ts_ms": 1, "obj": "a", "off": 0, "len": 10, "kind": "get"}
    trace.write_text(json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n")
    assert main(["cache", "--trace", str(trace), "--capacity", "1MB"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: section 'cache': line 2: {problem}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["cache", "--trace", "deep.jsonl", "--capacity", "1MB"], "section 'cache': line 2: invalid JSON"),
        (["scenario", "run", "deep.json"], "scenario file deep.json: invalid JSON"),
        (["price", "--book-file", "deep.json", "--tally", "tally.json"], "price book file deep.json: invalid JSON"),
        (["price", "--book", "s3-standard", "--tally", "deep.json"], "tally file deep.json: invalid JSON"),
    ],
    ids=["cache-trace", "scenario", "price-book-file", "price-tally"],
)
def test_deeply_nested_json_exits_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    deep = "[" * 100_000 + "\n"
    record = {"ts_ms": 1, "obj": "a", "off": 0, "len": 10, "kind": "get"}
    (tmp_path / "deep.jsonl").write_text(json.dumps(record) + "\n" + deep)
    (tmp_path / "deep.json").write_text(deep)
    _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (nesting too deep)\n"


# Two refusals of json.load that are no JSONDecodeError: the text
# reader's UTF-8 check, and int()'s digit limit (Python 3.11 and
# backports) on a 5,000-digit number.
_UNREADABLE_JSON = {
    "non-utf8": (b'{"counts": "\xff"}\n', "'utf-8' codec can't decode byte 0xff"),
    "5000-digits": (b'{"counts": ' + b"9" * 5000 + b"}\n", "Exceeds the limit (4300 digits)"),
}


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit")
@pytest.mark.parametrize("fault", sorted(_UNREADABLE_JSON))
@pytest.mark.parametrize(
    "argv,what",
    [
        (["scenario", "run", "bad.json"], "scenario file bad.json"),
        (["price", "--book-file", "bad.json", "--tally", "tally.json"], "price book file bad.json"),
        (["price", "--book", "s3-standard", "--tally", "bad.json"], "tally file bad.json"),
        (["scan", "--layout", "bad.json", "--query", "query.json"],
         "scenario field 'scan.layout': file bad.json"),
    ],
    ids=["scenario", "price-book-file", "price-tally", "layout"],
)
def test_unreadable_json_exits_2_naming_its_file(argv, what, fault, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    content, reason = _UNREADABLE_JSON[fault]
    bad = tmp_path / "bad.json"  # absolute, so every refusal names the same path
    bad.write_bytes(content)
    _write(tmp_path / "tally.json", {"counts": {"get": 1}})
    _write(tmp_path / "query.json", QUERY)
    assert main([str(bad) if arg == "bad.json" else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what.replace('bad.json', str(bad))}: invalid JSON ({reason}")


def _with_closed_stdout(argv, env) -> subprocess.CompletedProcess:
    """``iocost ARGV`` in a new process whose stdout is a pipe with no reader."""
    read, write = os.pipe()
    os.close(read)
    try:
        return subprocess.run(
            [sys.executable, "-m", "iocost.cli", *argv], stdout=write, stderr=subprocess.PIPE,
            env=_src_env(env), cwd=SCENARIOS.parent, timeout=60,
        )
    finally:
        os.close(write)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["join", "--workers", "200", "--build-bytes", "100MB", "--queries", "500000",
         "--broadcast-frac", "0.2", "--request-bytes", "10KB"],
        ["scenario", "run", "scenarios/broadcast_fleet.json"],
        ["--help"],
        ["scenario", "run", "--help"],
    ],
    ids=["join", "scenario", "help", "scenario-run-help"],
)
def test_a_closed_stdout_exits_0_with_nothing_on_stderr(argv, unbuffered):
    # A reader that stops reading is no fault of the input or of the
    # program. Block-buffered, the write fails only in the exit flush,
    # which used to exit 120, also for argparse's own --help text;
    # unbuffered, in print, which used to exit 3.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = _with_closed_stdout(argv, env)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [JOIN_ARGS, ["scenario", "run", "scenarios/scan_demo.json"], ["--help"]],
    ids=["join", "scenario", "help"],
)
def test_a_process_started_without_stdout_exits_0_with_nothing_on_stderr(argv):
    # fd 1 closed at start leaves sys.stdout None: the output goes nowhere,
    # as to a closed pipe, and no write or flush of None is a fault.
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "iocost.cli", *argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=_src_env(os.environ),
                          cwd=SCENARIOS.parent, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, b"")


ENTRY_CASES = {
    "success": (JOIN_ARGS, 0),
    "refusal": (["scenario", "run", "missing.json"], 2),
    "runtime-fault": (["synth", "--records", "10", "--out", "/dev/full"], 3),
}


@pytest.mark.parametrize("name", sorted(ENTRY_CASES))
def test_the_process_entry_matches_main_in_process(name, tmp_path, monkeypatch, capsys):
    argv, code = ENTRY_CASES[name]
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    captured = capsys.readouterr()
    proc = subprocess.run([sys.executable, "-m", "iocost.cli", *argv], capture_output=True, text=True,
                          env=_src_env(os.environ), cwd=tmp_path, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


def test_main_in_process_leaves_the_garbage_collector_alone(capsys):
    # Only the process entry freezes objects; a caller of main keeps normal collection.
    assert main(JOIN_ARGS) == 0
    assert main(["--help"]) == 0
    assert gc.get_freeze_count() == 0
    assert gc.isenabled()


def test_the_console_script_is_the_process_entry():
    tomllib = pytest.importorskip("tomllib")
    from iocost.cli import entry

    pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"iocost": f"{entry.__module__}:{entry.__name__}"}


def _no_synthesis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("synthesis started")

    monkeypatch.setattr(tracemodel, "synthesize_trace", refuse)


@pytest.mark.parametrize(
    "flags,problem",
    [
        (["--records", "5", "--max", "1e19"], "anchor sizes must be <= 2**63 - 1"),
        (["--records", str(10**8 + 1)], "record count must be in [1, 10**8]"),
        (["--seed", "-1"], "scenario field 'seed': must be >= 0, got -1"),
        (["--records", "10", "--duration-ms", str(10**20)],
         "scenario field 'workload.synthesize': duration must be in [1, 2**63] ms"),
    ],
    ids=["anchor", "records", "negative-seed", "duration"],
)
def test_synth_past_the_trace_limits_exits_2(flags, problem, tmp_path, monkeypatch, capsys):
    _no_synthesis(monkeypatch)
    out = tmp_path / "t.jsonl"
    assert main(["synth", "--out", str(out)] + flags) == 2
    assert problem in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "synthesize,problem",
    [
        ({"anchors": [["10KB", 0.5], ["1e19", 1.0]]}, "anchor sizes must be <= 2**63 - 1"),
        ({"records": 10**8 + 1}, "record count must be in [1, 10**8]"),
        ({"duration_ms": 10**20}, "duration must be in [1, 2**63] ms"),
    ],
    ids=["anchor", "records", "duration"],
)
def test_scenario_synthesis_past_the_trace_limits_exits_2(
    synthesize, problem, tmp_path, monkeypatch, capsys
):
    _no_synthesis(monkeypatch)
    raw = {
        "price_book": "s3-standard",
        "workload": {"synthesize": synthesize},
        "cache": {"capacity_bytes": "1GB"},
    }
    assert main(["scenario", "run", _write(tmp_path / "s.json", raw)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"scenario field 'workload.synthesize': {problem}" in captured.err
