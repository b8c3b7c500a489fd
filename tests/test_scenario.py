"""Scenario files end to end: validation, execution, rendering."""

import copy
import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iocost import cachesim, columnar, scenario
from iocost.cli import main
from iocost.pricing import PriceBook, RequestTally, get_pricebook
from iocost.scenario import (
    DAYS_PER_YEAR,
    load_scenario,
    render_report,
    run_scenario,
    scenario_from_dict,
    usd_display,
)
from iocost.trace import Trace

JOIN_RAW = {
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

FLEET_RAW = {
    "price_book": "s3-standard",
    "scan_fleet": {
        "daily_bytes": "10PB",
        "avg_request_bytes": "10KB",
        "inflation": 5,
        "page_bytes": "1MB",
    },
}

SCAN_RAW = {
    "price_book": "s3-standard",
    "scan": {
        "layout": {
            "table": "events",
            "rows": 8,
            "columns": [
                {"name": "A", "page_bytes": 8, "value_bytes": 4},
                {"name": "B", "page_bytes": 8, "value_bytes": 4},
                {"name": "C", "page_bytes": 8, "value_bytes": 4},
            ],
        },
        "query": {
            "select": ["C"],
            "where": [
                {"col": "A", "op": ">=", "lit": 10},
                {"col": "B", "op": "<=", "lit": 9},
            ],
        },
        "data": {
            "A": [10, 20, 5, 30, 25, 12, 40, 8],
            "B": [7, 10, 3, 9, 10, 2, 10, 5],
            "C": [3, 14, 15, 9, 26, 5, 35, 8],
        },
    },
}

CACHE_RAW = {
    "price_book": "s3-standard",
    "workload": {"synthesize": {"records": 2000, "objects": 50}},
    "cache": {"capacity_bytes": "1GB", "block_bytes": "1MB"},
}


def _run(raw):
    return run_scenario(scenario_from_dict(copy.deepcopy(raw)))


def test_join_scenario_headline_numbers():
    report = _run(JOIN_RAW)
    assert report.to_dict()["price_book"] == "s3-standard"
    assert report.to_dict()["seed"] == 0
    assert [s.name for s in report.sections] == ["join"]
    join = report.sections[0]
    assert join.bytes == 2 * 10**15
    assert join.requests == 2 * 10**11
    assert join.nanousd == 8 * 10**13  # $80,000 per day
    assert join.usd == "80000"
    assert join.details["strategy"] == "broadcast"
    assert join.details["waste_fraction"] == "0.9950"
    assert join.details["waste_fraction_exact"] == "199/200"
    shuffle = join.comparison["shuffle"]
    assert shuffle["bytes"] == 10**13
    assert shuffle["requests"] == 10**9
    assert report.to_dict()["totals"]["nanousd"] == join.nanousd


def test_scan_fleet_scenario_headline_numbers():
    report = _run(FLEET_RAW)
    fleet = report.sections[0]
    assert fleet.name == "scan_fleet"
    assert fleet.details["mode"] == "pushdown"
    assert fleet.requests == 10**12
    assert fleet.bytes == 10**16
    assert fleet.nanousd == 4 * 10**14
    full = fleet.comparison["full_scan"]
    assert full["requests"] == 5 * 10**10
    assert full["bytes"] == 5 * 10**16


def test_scan_section_with_inline_data():
    report = _run(SCAN_RAW)
    scan = report.sections[0]
    # predicate chain on the fixed arrays: A>=10 keeps rows
    # {0,1,3,4,5,6}, then B<=9 keeps {0,3,5}
    assert scan.details["survivors"] == 3
    assert scan.details["mode"] == "pushdown"
    assert scan.details["data_source"] == "supplied"
    assert scan.details["table"] == "events"
    for side in ("pushdown", "full_scan"):
        assert side in scan.comparison
    assert scan.comparison["full_scan"]["requests"] == 12  # 4 pages x 3 columns
    assert scan.requests < 12


def test_scan_section_data_at_the_int64_limits():
    raw = copy.deepcopy(SCAN_RAW)
    raw["scan"]["data"]["A"] = [2**63 - 1, 20, -2**63, 30, 25, 12, 40, 8]
    raw["scan"]["query"]["where"][0]["lit"] = 2**63 - 1  # A >= lit keeps row 0 only
    report = _run(raw)
    assert report.sections[0].details["survivors"] == 1


def test_scan_section_synthesizes_data_deterministically():
    raw = copy.deepcopy(SCAN_RAW)
    del raw["scan"]["data"]
    raw["seed"] = 3
    first = _run(raw)
    second = _run(raw)
    assert first.sections[0].details["data_source"] == "synthesized"
    assert render_report(first) == render_report(second)


def _mask_plan(layout, data, projection, predicates, pushdown):
    """The reads and survivor mask of a scan, with every predicate compared at every row."""
    steps = [(p.column, p) for p in predicates] + [(name, None) for name in projection]
    survivors = np.ones(layout.rows, dtype=bool)
    read = {}
    offsets, lengths = [], []
    for i, (name, pred) in enumerate(steps):
        col = layout.column(name)
        if pushdown and i > 0:
            wanted = np.zeros(col.pages, dtype=bool)
            wanted[np.flatnonzero(survivors) // col.rows_per_page] = True
        else:
            wanted = np.ones(col.pages, dtype=bool)
        wanted &= ~read.setdefault(name, np.zeros(col.pages, dtype=bool))
        read[name] |= wanted
        start_rows = np.flatnonzero(wanted) * col.rows_per_page
        offsets.append(col.offset + start_rows * col.value_bytes)
        lengths.append(np.minimum(col.rows_per_page, layout.rows - start_rows) * col.value_bytes)
        if pred is not None:
            survivors &= columnar._OPS[pred.op](data[name], pred.literal)
    reads = Trace._gets_on(layout.table, np.concatenate(offsets), np.concatenate(lengths))
    return columnar.ScanPlan(reads, survivors)


@pytest.mark.parametrize(
    ("layout", "where"),
    # layout is (rows, page_bytes) of 4-byte values in columns A, B and C.
    [
        # 1% survive A: pushdown reads few pages of B
        pytest.param((4000, 40), [("A", "=", 7), ("B", "<", 10)], id="where0"),
        # half survive A: pushdown reads nearly every page of B
        pytest.param((4000, 40), [("A", "<", 50), ("B", ">=", 50)], id="where1"),
        # every column compared, C after two cuts
        pytest.param((4000, 40), [("A", "<", 20), ("B", "<", 20), ("C", "<", 50)], id="where2"),
        pytest.param((4000, 40), [("A", "<", 99), ("B", ">=", 1)], id="99pct_survive_A"),
        # 9 rows a page leave 4 rows on the last page
        pytest.param((4000, 36), [("A", "<", 30), ("B", "<", 60)], id="partial_last_page"),
        pytest.param((4000, 10**6), [("A", "=", 7), ("B", "<", 10)], id="one_page_of_every_row"),
        # 1,024 rows a page, every row surviving: a per-page count in uint8 would wrap to 0
        pytest.param((4096, 4096), [("A", ">=", 0)], id="whole_pages_of_1024_survive"),
    ],
)
@pytest.mark.parametrize("pushdown", [True, False])
def test_plan_scan_gives_the_mask_plan_at_any_selectivity(layout, where, pushdown):
    rows, page_bytes = layout
    layout = columnar.build_layout(rows, [(n, page_bytes, 4) for n in "ABC"])
    data = columnar.synthesize_column_data(layout, 3)
    predicates = [columnar.Predicate(*p) for p in where]
    plan = columnar.plan_scan(layout, data, ["C"], predicates, pushdown=pushdown)
    want = _mask_plan(layout, data, ["C"], predicates, pushdown)
    assert np.array_equal(plan.mask, want.mask) and plan.mask.dtype == bool
    assert np.array_equal(plan.reads.off, want.reads.off)
    assert np.array_equal(plan.reads.length, want.reads.length)


# Literals inside [0, 100), where synthesized values lie, and outside the int32 range.
_LITERALS = st.integers(0, 100) | st.sampled_from([-2**63, -2**31 - 1, -2**31, 2**31 - 1, 2**31, 2**63 - 1, 2**70])


@st.composite
def _synthesized_scans(draw):
    """A scan section with no data: 1 to 5 columns, each projected, compared, both or neither."""
    rows = draw(st.integers(1, 60))
    names = "ABCDE"[: draw(st.integers(1, 5))]
    roles = [draw(st.sampled_from(["select", "where", "both", "neither"])) for _ in names]
    compared = [n for n, role in zip(names, roles) if role in ("where", "both")]
    selected = [n for n, role in zip(names, roles) if role in ("select", "both")]
    where = [
        {"col": name, "op": draw(st.sampled_from(sorted(columnar._OPS))), "lit": draw(_LITERALS)}
        for name in draw(st.permutations(compared))
    ]
    select = draw(st.permutations(selected)) if where or selected else [names[0]]
    columns = [{"name": n, "page_bytes": 4 * draw(st.integers(1, 8)), "value_bytes": 4} for n in names]
    return {
        "price_book": "s3-standard",
        "seed": draw(st.integers(0, 2**32)),
        "scan": {
            "layout": {"table": "t", "rows": rows, "columns": columns},
            "query": {"select": select, "where": where, "pushdown": draw(st.booleans())},
            "coalesce_gap": draw(st.sampled_from([None, 0, 8])),
        },
    }


@given(_synthesized_scans())
def test_a_synthesized_scan_reports_what_every_column_drawn_gives_property(raw):
    # The section draws only the columns up to the last one compared; the
    # report must be that of every column drawn and compared at every row.
    s = scenario_from_dict(copy.deepcopy(raw))
    section = s.sections["scan"]
    sides, mode, details = scenario._run_scan(section, s)
    layout, gap = section["layout"], section["coalesce_gap"]
    select, predicates, pushdown = section["query"]
    data = columnar.synthesize_column_data(layout, raw["seed"])
    want = {}
    for side, side_pushdown in (("pushdown", True), ("full_scan", False)):
        plan = _mask_plan(layout, data, select, predicates, side_pushdown)
        survivors = plan.survivor_count
        if gap is not None:
            plan = columnar.coalesce_requests(plan, gap)
        want[side] = plan.reads.tally()
    assert sides == want
    assert mode == ("pushdown" if pushdown else "full_scan")
    assert details == {
        "table": "t", "rows": layout.rows, "mode": mode, "survivors": survivors,
        "coalesce_gap": gap, "data_source": "synthesized",
    }


def test_scan_files_resolve_against_scenario_dir(tmp_path):
    (tmp_path / "layout.json").write_text(json.dumps(SCAN_RAW["scan"]["layout"]))
    (tmp_path / "query.json").write_text(json.dumps(SCAN_RAW["scan"]["query"]))
    raw = copy.deepcopy(SCAN_RAW)
    raw["scan"]["layout"] = "layout.json"
    raw["scan"]["query"] = "query.json"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    report = run_scenario(load_scenario(str(path)))
    assert report.sections[0].details["survivors"] == 3
    # scan.data may be a file next to the scenario too, and reads as the same data inline
    (tmp_path / "data.json").write_text(json.dumps(SCAN_RAW["scan"]["data"]))
    raw["scan"]["data"] = "data.json"
    path.write_text(json.dumps(raw))
    from_file = run_scenario(load_scenario(str(path)))
    assert from_file.sections == report.sections


def test_cache_scenario_beats_no_cache_on_reused_workload():
    report = _run(CACHE_RAW)
    cache = report.sections[0]
    assert cache.name == "cache"
    comp = cache.comparison
    assert comp["cache"]["requests"] == cache.details["origin_requests"]
    assert comp["no_cache"]["requests"] == cache.details["requests_served"] == 2000
    assert comp["cache"]["requests"] < comp["no_cache"]["requests"]
    assert comp["cache"]["nanousd"] < comp["no_cache"]["nanousd"]
    assert cache.details["hits"] > 0
    assert cache.details["workload"] == {
        "source": "synthesized", "records": 2000, "seed": 0,
    }
    assert cache.details["distinct_blocks"] > 0


def test_cache_section_prices_origin_traffic(tmp_path):
    # the priced side is the origin GETs alone, at the book's read price
    cache = _run(CACHE_RAW).sections[0]
    assert cache.nanousd == cache.details["origin_requests"] * 400  # s3-standard
    assert cache.comparison["no_cache"]["nanousd"] == 2000 * 400
    lines = [
        json.dumps({"ts_ms": i, "obj": "x", "off": 0, "len": 1000, "kind": "get"})
        for i in range(2)
    ]
    (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
    raw = {
        "price_book": "azure-gpv2-hot",
        "workload": {"trace": "trace.jsonl"},
        "cache": {"capacity_bytes": "1KB", "block_bytes": "1KB"},
    }
    cache = run_scenario(scenario_from_dict(raw, base_dir=str(tmp_path))).sections[0]
    assert cache.details["origin_requests"] == 1
    assert cache.nanousd == 500


def test_cache_scenario_reads_trace_file(tmp_path):
    lines = [
        json.dumps({"ts_ms": i, "obj": "x", "off": 0, "len": 1000, "kind": "get"})
        for i in range(4)
    ]
    (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
    raw = {
        "price_book": "s3-standard",
        "workload": {"trace": "trace.jsonl"},
        "cache": {"capacity_bytes": "1MB"},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    report = run_scenario(load_scenario(str(path)))
    cache = report.sections[0]
    assert cache.details["workload"] == {
        "source": "trace", "path": "trace.jsonl", "records": 4,
    }
    assert cache.details["requests_served"] == 4
    assert cache.details["origin_requests"] == 1


def test_cache_section_is_one_simulate_call(monkeypatch, capsys):
    # A tracer that wraps cachesim.simulate, as the benchmark's does, sees
    # the cache section's whole work and the counters it reports.
    calls = []
    simulate = cachesim.simulate

    def recording(*args, **kwargs):
        calls.append(simulate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cachesim, "simulate", recording)
    path = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "cache_demo.json"
    assert main(["scenario", "run", str(path)]) == 0
    details = json.loads(capsys.readouterr().out)["sections"][0]["details"]
    assert len(calls) == 1
    for key in ("hits", "misses", "origin_requests", "distinct_blocks"):
        assert getattr(calls[0], key) == details[key]


def test_custom_price_book_file(tmp_path):
    book = {
        "id": "flat-book",
        "classes": [
            {"class": "read", "kinds": ["get", "head", "select", "list"], "nanousd_per_request": 7},
            {"class": "write", "kinds": ["put", "post", "copy"], "nanousd_per_request": 9},
        ],
    }
    (tmp_path / "book.json").write_text(json.dumps(book))
    raw = copy.deepcopy(JOIN_RAW)
    raw["price_book"] = {"file": "book.json"}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    report = run_scenario(load_scenario(str(path)))
    assert report.to_dict()["price_book"] == "flat-book"
    assert report.sections[0].nanousd == 2 * 10**11 * 7


def test_a_report_holds_the_scenario_it_ran(tmp_path):
    book = {"id": "flat-book", "classes": [{"class": "read", "kinds": ["get"], "nanousd_per_request": 7}]}
    (tmp_path / "book.json").write_text(json.dumps(book))
    raw = {**copy.deepcopy(SCAN_RAW), "price_book": {"file": "book.json"}, "seed": 5}
    (tmp_path / "scenario.json").write_text(json.dumps(raw))
    s = load_scenario(str(tmp_path / "scenario.json"))
    report = run_scenario(replace(s, annual=True))
    assert report.scenario.annual
    assert report.scenario.echo is s.echo
    out = report.to_dict()
    assert (out["price_book"], out["seed"], out["scenario"]) == (s.price_book.book_id, s.seed, s.echo)
    assert (out["price_book"], out["seed"]) == ("flat-book", 5)
    assert "annual_totals" in out


def test_price_book_file_errors_name_the_scenario_field(tmp_path):
    book = {"id": "flat", "classes": [
        {"class": "read", "kinds": ["get"], "nanousd_per_request": 3, "lable": "Reads"},
    ]}
    (tmp_path / "book.json").write_text(json.dumps(book))
    raw = {**JOIN_RAW, "price_book": {"file": "book.json"}}
    with pytest.raises(ValueError) as excinfo:
        scenario_from_dict(raw, base_dir=str(tmp_path))
    assert str(excinfo.value).startswith("scenario field 'price_book.file.classes[0].lable': ")


def test_multi_section_order_and_consistency():
    raw = {
        "price_book": "s3-standard",
        "workload": CACHE_RAW["workload"],
        "cache": CACHE_RAW["cache"],
        "join": JOIN_RAW["join"],
        "scan_fleet": FLEET_RAW["scan_fleet"],
        "scan": SCAN_RAW["scan"],
    }
    report = _run(raw)
    assert [s.name for s in report.sections] == ["scan", "scan_fleet", "join", "cache"]
    book = get_pricebook("s3-standard")
    for section in report.sections:
        tally = RequestTally(
            {"get": section.requests},
            {"get": section.bytes} if section.bytes else {},
        )
        assert section.nanousd == book.cost_of(tally)
    totals = report.to_dict()["totals"]
    assert totals["requests"] == sum(s.requests for s in report.sections)
    assert totals["bytes"] == sum(s.bytes for s in report.sections)
    assert totals["nanousd"] == sum(s.nanousd for s in report.sections)


def test_report_echoes_scenario():
    raw = copy.deepcopy(JOIN_RAW)
    report = run_scenario(scenario_from_dict(raw))
    assert report.to_dict()["scenario"] == raw


def test_annual_totals():
    raw = copy.deepcopy(JOIN_RAW)
    raw["annual"] = True
    report = _run(raw)
    out = report.to_dict()
    section = out["sections"][0]
    assert section["annual_nanousd"] == section["nanousd"] * DAYS_PER_YEAR
    assert out["annual_totals"]["nanousd"] == out["totals"]["nanousd"] * DAYS_PER_YEAR
    assert out["annual_totals"]["usd"] == "29200000"  # $80,000 x 365
    table = render_report(report, fmt="table")
    assert "annual total (365 days): $29,200,000" in table


def test_render_json_round_trip():
    report = _run(JOIN_RAW)
    text = render_report(report, fmt="json")
    assert text.endswith("\n")
    assert json.loads(text) == report.to_dict()
    assert text == json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def test_render_json_is_deterministic():
    assert render_report(_run(CACHE_RAW)) == render_report(_run(CACHE_RAW))


def test_render_table():
    table = render_report(_run(JOIN_RAW), fmt="table")
    assert "cost report (price book s3-standard, seed 0)" in table
    assert "$80,000" in table
    lines = table.splitlines()
    assert lines[-1].startswith("total")
    with pytest.raises(ValueError, match="unknown report format"):
        render_report(_run(JOIN_RAW), fmt="csv")


@pytest.mark.parametrize(
    "nanousd,expected",
    [
        (8 * 10**13, "$80,000"),
        (146 * 10**15, "$146,000,000"),
        (400, "$0.0000004"),
        (0, "$0"),
        (-8 * 10**13, "-$80,000"),
        (1_234_500_000_000, "$1,234.5"),
    ],
)
def test_usd_display(nanousd, expected):
    assert usd_display(nanousd) == expected


BAD_SCENARIOS = [
    ({}, "price_book"),
    ({"price_book": "s3-standard"}, "scenario needs at least one section (scan, scan_fleet, join, or cache)"),
    ({"price_book": "nope", "join": JOIN_RAW["join"]}, "unknown price book"),
    ({"price_book": "s3-standard", "cache": {"capacity_bytes": 0}},
     "requires a 'workload' section"),
    ({**JOIN_RAW, "extra": 1}, "unknown fields"),
    ({**JOIN_RAW, "seed": "x"}, "'seed'"),
    ({**JOIN_RAW, "annual": 1}, "'annual'"),
    ({"price_book": "s3-standard",
      "workload": {"trace": "t.jsonl", "synthesize": {}},
      "cache": {"capacity_bytes": 0}},
     "exactly one of 'trace' or 'synthesize'"),
    ({"price_book": "s3-standard",
      "workload": {"synthesize": {"recs": 5}},
      "cache": {"capacity_bytes": 0}},
     "unknown fields"),
    ({"price_book": "s3-standard", "join": {**JOIN_RAW["join"], "build_bytes": "5QB"}},
     "'join.build_bytes'"),
    ({"price_book": "s3-standard", "join": {**JOIN_RAW["join"], "strategy": "magic"}},
     "'join.strategy'"),
    ({"price_book": "s3-standard",
      "join": {k: v for k, v in JOIN_RAW["join"].items() if k != "broadcast_fraction"}},
     "broadcast_fraction"),
    ({"price_book": "s3-standard",
      "scan_fleet": {**FLEET_RAW["scan_fleet"], "inflation": 0}},
     "'scan_fleet.inflation'"),
    ({"price_book": "s3-standard", "scan": {"query": SCAN_RAW["scan"]["query"]}},
     "missing field 'layout'"),
    ({"price_book": "s3-standard", "scan": {"layout": SCAN_RAW["scan"]["layout"]}},
     "missing field 'query'"),
    ({"price_book": "s3-standard",
      "workload": CACHE_RAW["workload"],
      "cache": {"block_bytes": "1MB"}},
     "missing field 'capacity_bytes'"),
    ({"price_book": "s3-standard",
      "scan": {**SCAN_RAW["scan"], "data": {"A": [1, "x"]}}},
     "'scan.data'"),
    ({"price_book": "s3-standard",
      "scan": {**SCAN_RAW["scan"], "data": {"A": [1, 2**63]}}},
     "'scan.data': must map column names to arrays of 64-bit integers"),
    ({"price_book": "s3-standard",
      "scan": {**SCAN_RAW["scan"], "data": {"A": [-2**63 - 1]}}},
     "'scan.data': must map column names to arrays of 64-bit integers"),
    ({"price_book": "s3-standard",
      "scan": {**SCAN_RAW["scan"], "data": {**SCAN_RAW["scan"]["data"], "Zz": [1] * 8}}},
     "scenario field 'scan.data.Zz': table 'events' has no such column"),
    ({"price_book": "s3-standard",
      "scan": {**SCAN_RAW["scan"], "data": {**SCAN_RAW["scan"]["data"], "B": [1, 2]}}},
     "scenario field 'scan.data.B': has 2 values for 8 rows"),
    ({"price_book": "s3-standard",
      "workload": {"synthesize": {"anchors": [[1]]}},
      "cache": {"capacity_bytes": 0}},
     "must be an array of [size, fraction] pairs"),
    ({**JOIN_RAW, "workload": {"synthesize": {"records": 10}}},
     "scenario field 'workload': only a 'cache' section reads a workload"),
]


@pytest.mark.parametrize("raw,needle", BAD_SCENARIOS, ids=range(len(BAD_SCENARIOS)))
def test_scenario_validation(raw, needle):
    with pytest.raises(ValueError) as excinfo:
        scenario_from_dict(copy.deepcopy(raw))
    assert needle in str(excinfo.value)


FIELD_ERRORS = [
    ({**JOIN_RAW, "join": {**JOIN_RAW["join"], "workers": 0}}, "join.workers"),
    ({**JOIN_RAW, "join": {**JOIN_RAW["join"], "queries_per_day": -1}}, "join.queries_per_day"),
    ({**JOIN_RAW, "join": {**JOIN_RAW["join"], "build_bytes": "inf"}}, "join.build_bytes"),
    ({**JOIN_RAW, "join": {**JOIN_RAW["join"], "broadcast_fraction": 1.5}}, "join.broadcast_fraction"),
    ({**CACHE_RAW, "cache": {"capacity_bytes": "1e400"}}, "cache.capacity_bytes"),
    ({**CACHE_RAW, "cache": {"capacity_bytes": "1GB", "block_bytes": -1}}, "cache.block_bytes"),
    ({**SCAN_RAW, "scan": {**SCAN_RAW["scan"], "layout": "bad.json"}}, "scan.layout"),
]


@pytest.mark.parametrize("raw,field", FIELD_ERRORS, ids=[f for _, f in FIELD_ERRORS])
def test_field_errors_name_the_field_once(raw, field, tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(ValueError) as excinfo:
        scenario_from_dict(copy.deepcopy(raw), base_dir=str(tmp_path))
    message = str(excinfo.value)
    assert message.startswith(f"scenario field {field!r}: ")
    assert message.count("scenario field") == 1


def test_workload_trace_file_must_exist(tmp_path):
    raw = {
        "price_book": "s3-standard",
        "workload": {"trace": "missing.jsonl"},
        "cache": {"capacity_bytes": 0},
    }
    with pytest.raises(FileNotFoundError, match="workload.trace"):
        scenario_from_dict(raw, base_dir=str(tmp_path))


def test_load_scenario_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_scenario(str(tmp_path / "none.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_scenario(str(bad))


def test_run_wraps_section_errors():
    # layout names column D that the data lacks; parse succeeds, run fails
    raw = copy.deepcopy(SCAN_RAW)
    raw["scan"]["layout"]["columns"].append(
        {"name": "D", "page_bytes": 8, "value_bytes": 4}
    )
    raw["scan"]["query"]["select"] = ["D"]
    scenario = scenario_from_dict(raw)
    with pytest.raises(ValueError, match="section 'scan'"):
        run_scenario(scenario)


def test_scan_coalesce_gap_flows_through():
    raw = copy.deepcopy(SCAN_RAW)
    raw["scan"]["coalesce_gap"] = "1KB"
    report = _run(raw)
    scan = report.sections[0]
    assert scan.details["coalesce_gap"] == 1000
    # the full scan touches all 12 pages of the object back to back,
    # so coalescing folds them into a single ranged read
    assert scan.comparison["full_scan"]["requests"] == 1
    assert scan.comparison["full_scan"]["bytes"] == 96
    assert scan.requests <= 3


def test_bundled_scenarios_run_clean():
    root = pathlib.Path(__file__).resolve().parent.parent / "scenarios"
    paths = sorted(root.glob("*.json"))
    assert len(paths) == 4
    for path in paths:
        report = run_scenario(load_scenario(str(path)))
        assert report.sections
        assert report.to_dict()["totals"]["nanousd"] >= 0
        assert render_report(report).endswith("\n")


# The side each section reports, read from its details.
_CHOSEN = {
    "scan": lambda details: details["mode"],
    "scan_fleet": lambda details: details["mode"],
    "join": lambda details: details["strategy"],
    "cache": lambda details: "cache",
}


@pytest.mark.parametrize(
    "path", sorted((pathlib.Path(__file__).resolve().parent.parent / "scenarios").glob("*.json")),
    ids=lambda path: path.stem,
)
def test_every_side_is_priced_by_the_book(path, monkeypatch):
    # Each tally a runner emits reaches the book as it is, and the report
    # holds what the book priced, side by side in report order.
    tallies, priced = [], []
    original = PriceBook.priced

    def recording(self, tally):
        tallies.append(tally)
        priced.append(original(self, tally))
        return priced[-1]

    monkeypatch.setattr(PriceBook, "priced", recording)
    sections = run_scenario(load_scenario(str(path))).to_dict()["sections"]
    assert tallies
    for tally in tallies:
        assert isinstance(tally, RequestTally)
        assert set(tally.counts) == set(tally.transferred_bytes) == {"get"}
    assert [side for section in sections for side in section["comparison"].values()] == priced
    for section in sections:
        chosen = section["comparison"][_CHOSEN[section["name"]](section["details"])]
        assert {key: section[key] for key in ("requests", "bytes", "nanousd", "usd")} == chosen


def test_the_bill_prices_whatever_a_runner_emits(monkeypatch):
    parse_join, _ = scenario._SECTIONS["join"]

    def mixed(section, run):
        return {"mixed": RequestTally({"get": 2, "put": 1}, {"get": 10, "put": 5})}, "mixed", {}

    monkeypatch.setitem(scenario._SECTIONS, "join", (parse_join, mixed))
    join = _run(JOIN_RAW).sections[0]
    assert join.comparison["mixed"] == {
        "requests": 3, "bytes": 15, "nanousd": 2 * 400 + 5_000, "usd": "0.0000058",
    }
    assert (join.requests, join.bytes, join.nanousd) == (3, 15, 5_800)


def test_scan_plan_matches_columnar_module():
    report = _run(SCAN_RAW)
    scan = report.sections[0]
    layout = columnar.layout_from_dict(SCAN_RAW["scan"]["layout"])
    select, predicates, _ = columnar.query_from_dict(SCAN_RAW["scan"]["query"])
    plan = columnar.plan_scan(
        layout, SCAN_RAW["scan"]["data"], select, predicates, pushdown=True
    )
    assert scan.requests == plan.request_count
    assert scan.bytes == plan.total_bytes
    assert scan.details["survivors"] == len(plan.survivors)