"""Layout packing, scan planning, pushdown equivalence, coalescing."""

import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iocost.columnar import (
    MAX_LAYOUT_PAGES,
    MAX_LAYOUT_VALUES,
    Predicate,
    ReadRequest,
    ScanPlan,
    apply_predicate,
    build_layout,
    coalesce_requests,
    fleet_scan_projection,
    layout_from_dict,
    pages_for_rows,
    plan_scan,
    query_from_dict,
    synthesize_column_data,
)
from iocost.pricing import RequestTally, get_pricebook
from iocost.units import KB, MB, PB, load_json

# Example table: an 8-row scan whose predicate chain narrows all rows
# to {1,3,4,6} and then to {1,4,6}.
DEMO_DATA = {
    "A": [10, 20, 5, 30, 25, 12, 40, 8],
    "B": [7, 10, 3, 9, 10, 2, 10, 5],
    "C": [3, 14, 15, 9, 26, 5, 35, 8],
}


def demo_layout(page_values=4):
    cols = [(name, 4 * page_values, 4) for name in ("A", "B", "C")]
    return build_layout(8, cols, table="t")


def pages_read(layout, plan):
    """(column, page id) of each request of an uncoalesced plan, in order."""
    by_offset = {
        page.offset: (col.name, pid) for col in layout.columns for pid, page in enumerate(col.pages)
    }
    return [by_offset[req.offset] for req in plan.requests]


def test_build_layout_packing():
    layout = build_layout(8, [("A", 16, 4)])
    pages = layout.column("A").pages
    assert [(p.start_row, p.rows) for p in pages] == [(0, 4), (4, 4)]
    one = build_layout(8, [("A", 400, 4)])
    assert len(one.column("A").pages) == 1
    assert one.column("A").pages[0].rows == 8


def test_build_layout_million_rows():
    layout = build_layout(10**6, [("x", MB, 8)])
    pages = layout.column("x").pages
    assert len(pages) == 8
    assert all(p.rows == 125_000 for p in pages)
    assert sum(p.length for p in pages) == 8 * 10**6


def test_build_layout_geometry_invariants():
    rng = random.Random(77)
    for _ in range(50):
        rows = rng.randint(1, 300)
        cols = [(f"c{i}", rng.randint(1, 64) * 4, 4) for i in range(rng.randint(1, 4))]
        layout = build_layout(rows, cols)
        spans = []
        for col in layout.columns:
            covered = 0
            for page in col.pages:
                assert page.start_row == covered
                covered += page.rows
                spans.append((page.offset, page.offset + page.length))
            assert covered == rows
        # no two pages overlap in file bytes
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


@pytest.mark.parametrize(
    "rows,cols",
    [
        (0, [("A", 16, 4)]),
        (5, []),
        (5, [("A", 2, 4)]),  # page smaller than a value
        (5, [("A", 16, 4), ("A", 16, 4)]),  # duplicate name
        (5, [("A", 16, 0)]),
        (MAX_LAYOUT_VALUES + 1, [("A", 16, 4)]),  # too many values
        (MAX_LAYOUT_VALUES // 2 + 1, [("A", 16, 4), ("B", 16, 4)]),
        (10**9, [(n, 10**9, 4) for n in "ABC"]),
        (MAX_LAYOUT_PAGES + 1, [("A", 4, 4)]),  # too many pages
        (MAX_LAYOUT_PAGES // 2 + 1, [("A", 4, 4), ("B", 8, 8)]),
    ],
)
def test_build_layout_validation(rows, cols):
    with pytest.raises(ValueError):
        build_layout(rows, cols)


def test_build_layout_accepts_the_largest_table():
    layout = build_layout(MAX_LAYOUT_VALUES // 2, [("A", MB, 4), ("B", MB, 4)])
    assert sum(len(c.pages) for c in layout.columns) == 2 * 20


def test_apply_predicate_chain():
    surv1 = apply_predicate(DEMO_DATA["A"], Predicate("A", ">", 15), range(8))
    assert surv1 == {1, 3, 4, 6}
    surv2 = apply_predicate(DEMO_DATA["B"], Predicate("B", "=", 10), surv1)
    assert surv2 == {1, 4, 6}
    assert apply_predicate(DEMO_DATA["A"], Predicate("A", ">", 15), set()) == set()


def test_apply_predicate_all_comparators():
    values = [5, 10, 15]
    cases = {"<": {0}, "<=": {0, 1}, "=": {1}, ">=": {1, 2}, ">": {2}}
    for op, expected in cases.items():
        assert apply_predicate(values, Predicate("v", op, 10), range(3)) == expected


def test_apply_predicate_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        apply_predicate([1, 2], Predicate("v", "<", 5), [2])


def test_unknown_comparator():
    with pytest.raises(ValueError, match="!="):
        Predicate("v", "!=", 5)


def test_pages_for_rows():
    layout = demo_layout()  # two 4-row pages per column
    assert pages_for_rows(layout, "A", set()) == set()
    assert pages_for_rows(layout, "A", range(8)) == {0, 1}
    assert pages_for_rows(layout, "A", {1, 4, 6}) == {0, 1}
    assert pages_for_rows(layout, "A", {1}) == {0}
    with pytest.raises(ValueError, match="unknown column"):
        pages_for_rows(layout, "Z", {1})
    with pytest.raises(ValueError, match="out of range"):
        pages_for_rows(layout, "A", {8})


def test_pages_for_rows_matches_interval_oracle():
    rng = random.Random(13)
    for _ in range(50):
        rows = rng.randint(1, 200)
        layout = build_layout(rows, [("A", rng.randint(1, 32) * 8, 8)])
        col = layout.column("A")
        wanted = {rng.randrange(rows) for _ in range(rng.randint(0, 20))}
        oracle = {
            i
            for i, page in enumerate(col.pages)
            if any(page.start_row <= r < page.start_row + page.rows for r in wanted)
        }
        assert pages_for_rows(layout, "A", wanted) == oracle


def demo_predicates():
    return [Predicate("A", ">", 15), Predicate("B", "=", 10)]


def test_plan_scan_demo_chain():
    layout = demo_layout()
    on = plan_scan(layout, DEMO_DATA, ["B", "C"], demo_predicates(), pushdown=True)
    off = plan_scan(layout, DEMO_DATA, ["B", "C"], demo_predicates(), pushdown=False)
    assert on.survivors == off.survivors == frozenset({1, 4, 6})
    assert on.total_bytes <= off.total_bytes


def test_plan_scan_empty_survivors_skip_later_columns():
    layout = demo_layout()
    plan = plan_scan(layout, DEMO_DATA, ["B", "C"], [Predicate("A", ">", 1000)], pushdown=True)
    assert plan.survivors == frozenset()
    assert {name for name, _ in pages_read(layout, plan)} == {"A"}
    # full scan still reads everything referenced
    full = plan_scan(layout, DEMO_DATA, ["B", "C"], [Predicate("A", ">", 1000)], pushdown=False)
    assert {name for name, _ in pages_read(layout, full)} == {"A", "B", "C"}


def test_plan_scan_narrow_projection_reads_fewer_pages():
    # 1-row pages make the page savings visible
    layout = build_layout(8, [(n, 4, 4) for n in ("A", "B", "C")])
    on = plan_scan(layout, DEMO_DATA, ["C"], demo_predicates(), pushdown=True)
    off = plan_scan(layout, DEMO_DATA, ["C"], demo_predicates(), pushdown=False)
    read_on = pages_read(layout, on)
    # A fully, B only where A survived, C only final survivors
    assert [pid for name, pid in read_on if name == "A"] == list(range(8))
    assert [pid for name, pid in read_on if name == "B"] == [1, 3, 4, 6]
    assert [pid for name, pid in read_on if name == "C"] == [1, 4, 6]
    assert on.request_count == 8 + 4 + 3
    assert off.request_count == 24
    assert on.total_bytes < off.total_bytes


def test_plan_scan_validation():
    layout = demo_layout()
    with pytest.raises(ValueError, match="unknown column"):
        plan_scan(layout, DEMO_DATA, ["Z"], [], pushdown=True)
    with pytest.raises(ValueError, match="no columns"):
        plan_scan(layout, DEMO_DATA, [], [], pushdown=True)
    with pytest.raises(ValueError, match="no data"):
        plan_scan(layout, {"A": DEMO_DATA["A"]}, ["B"], [], pushdown=True)
    with pytest.raises(ValueError, match="values"):
        plan_scan(layout, {"A": [1, 2]}, ["A"], [], pushdown=True)


def test_plan_tally_self_consistency_and_no_overlap():
    layout = demo_layout(page_values=2)
    for pushdown in (True, False):
        plan = plan_scan(layout, DEMO_DATA, ["B", "C"], demo_predicates(), pushdown=pushdown)
        assert plan.request_count == len(plan.requests)
        assert plan.total_bytes == sum(r.length for r in plan.requests)
        spans = sorted((r.offset, r.offset + r.length) for r in plan.requests)
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0


def _random_case(rng):
    rows = rng.randint(1, 60)
    names = ["A", "B", "C", "D"][: rng.randint(1, 4)]
    layout = build_layout(rows, [(n, 4 * rng.randint(1, 8), 4) for n in names])
    data = {n: [rng.randint(0, 20) for _ in range(rows)] for n in names}
    predicates = [
        Predicate(rng.choice(names), rng.choice(["<", "<=", "=", ">=", ">"]), rng.randint(0, 20))
        for _ in range(rng.randint(0, 3))
    ]
    projection = [n for n in names if rng.random() < 0.5]
    if not projection and not predicates:
        projection = [names[0]]
    return layout, data, projection, predicates


def _brute_force_survivors(data, predicates, rows):
    return {
        i
        for i in range(rows)
        if all(pred.matches(data[pred.column][i]) for pred in predicates)
    }


def test_pushdown_equivalence_property():
    rng = random.Random(4242)
    for _ in range(300):
        layout, data, projection, predicates = _random_case(rng)
        on = plan_scan(layout, data, projection, predicates, pushdown=True)
        off = plan_scan(layout, data, projection, predicates, pushdown=False)
        oracle = _brute_force_survivors(data, predicates, layout.rows)
        assert set(on.survivors) == set(off.survivors) == oracle
        assert on.total_bytes <= off.total_bytes
        assert on.request_count <= off.request_count


# Values and predicate constants at and near both ends of int64, so
# values tie with constants; the constants also step just past int64.
_NEAR_INT64_ENDS = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])
_NEAR_CONSTANTS = _NEAR_INT64_ENDS | st.sampled_from([-(2**63) - 1, 2**63])


@given(
    st.lists(st.tuples(_NEAR_INT64_ENDS, _NEAR_INT64_ENDS), min_size=1, max_size=40),
    st.lists(
        st.builds(Predicate, st.sampled_from("AB"), st.sampled_from(["<", "<=", "=", ">=", ">"]), _NEAR_CONSTANTS),
        max_size=3,
    ),
    st.sampled_from([[], ["A"], ["B"], ["A", "B"]]),
    st.integers(1, 4),
)
def test_pushdown_survivors_on_int64_columns_property(rows, predicates, projection, values_per_page):
    if not predicates and not projection:
        projection = ["A"]
    layout = build_layout(len(rows), [(name, 8 * values_per_page, 8) for name in "AB"])
    values = dict(zip("AB", (list(column) for column in zip(*rows))))
    data = {name: np.array(column, dtype=np.int64) for name, column in values.items()}
    on = plan_scan(layout, data, projection, predicates, pushdown=True)
    off = plan_scan(layout, data, projection, predicates, pushdown=False)
    # The oracle compares Python ints, so no value or constant is converted.
    oracle = {i for i in range(len(rows)) if all(p.matches(values[p.column][i]) for p in predicates)}
    assert set(on.survivors) == set(off.survivors) == oracle
    assert all(type(row) is int for row in on.survivors)
    assert on.total_bytes <= off.total_bytes


def test_pushdown_page_minimality_property():
    # every page of a non-first predicate or projection column must
    # intersect the survivor set that was current when it was planned
    rng = random.Random(99)
    for _ in range(100):
        layout, data, projection, predicates = _random_case(rng)
        plan = plan_scan(layout, data, projection, predicates, pushdown=True)
        by_column = {}
        for name, pid in pages_read(layout, plan):
            by_column.setdefault(name, set()).add(pid)
        # independent replay of the survivor chain
        expected = {}
        survivors = set(range(layout.rows))
        for i, pred in enumerate(predicates):
            if i == 0:
                pages = set(range(len(layout.column(pred.column).pages)))
            else:
                pages = pages_for_rows(layout, pred.column, survivors)
            expected.setdefault(pred.column, set()).update(pages)
            survivors = apply_predicate(data[pred.column], pred, survivors)
        for name in projection:
            expected.setdefault(name, set()).update(pages_for_rows(layout, name, survivors))
        expected = {name: pages for name, pages in expected.items() if pages}
        assert by_column == expected
        # columns only projected never read a page without a survivor
        predicate_cols = {p.column for p in predicates}
        for name in projection:
            if name not in predicate_cols:
                assert by_column.get(name, set()) <= pages_for_rows(layout, name, survivors)


def test_coalesce_examples():
    layout = build_layout(50, [("A", 4, 4)])
    plan = plan_scan(layout, {"A": [1] * 50}, ["A"], [], pushdown=True)
    merged = coalesce_requests(plan, 0)
    assert merged.request_count == 1
    assert merged.total_bytes == plan.total_bytes == 200
    assert merged.survivors == plan.survivors


def test_coalesce_respects_gap():
    adjacent = ScanPlan((ReadRequest("o", 0, 100), ReadRequest("o", 100, 100)), frozenset())
    merged = coalesce_requests(adjacent, 0)
    assert merged.request_count == 1
    assert (merged.requests[0].offset, merged.requests[0].length) == (0, 200)

    gapped = ScanPlan((ReadRequest("o", 0, 100), ReadRequest("o", 150, 100)), frozenset())
    assert coalesce_requests(gapped, 10).requests == gapped.requests  # gap 50 stays
    wide = coalesce_requests(gapped, 50)
    assert wide.request_count == 1
    assert wide.requests[0].length == 250  # the 50 gap bytes count as transferred
    # different objects never merge
    split = ScanPlan((ReadRequest("a", 0, 10), ReadRequest("b", 10, 10)), frozenset())
    assert coalesce_requests(split, 10**6).request_count == 2


def test_coalesce_monotonicity_property():
    rng = random.Random(321)
    book = get_pricebook("s3-standard")
    for _ in range(100):
        layout, data, projection, predicates = _random_case(rng)
        plan = plan_scan(layout, data, projection, predicates, pushdown=True)
        prev_requests, prev_bytes = plan.request_count, plan.total_bytes
        prev_cost = book.cost_of(RequestTally({"get": prev_requests}))
        for gap in (0, 2, 4, 8, 16, 10**6):
            merged = coalesce_requests(plan, gap)
            assert merged.request_count <= prev_requests
            assert merged.total_bytes >= prev_bytes
            assert merged.survivors == plan.survivors
            cost = book.cost_of(RequestTally({"get": merged.request_count}))
            assert cost <= prev_cost
            prev_requests, prev_bytes, prev_cost = (
                merged.request_count, merged.total_bytes, cost,
            )


def test_coalesce_exhaustive_small_cases():
    # brute-force check on every gap pattern of up to 5 unit requests
    from itertools import product

    for gaps in product((0, 1, 3), repeat=4):
        requests, offset = [], 0
        for gap in gaps + (None,):
            requests.append(ReadRequest("o", offset, 2))
            if gap is None:
                break
            offset += 2 + gap
        plan = ScanPlan(tuple(requests), frozenset())
        for max_gap in (0, 1, 2, 3):
            merged = coalesce_requests(plan, max_gap)
            expected = 1
            for gap in gaps:
                if gap > max_gap:
                    expected += 1
            assert merged.request_count == expected
            assert merged.total_bytes == sum(r.length for r in merged.requests)


_REQUESTS = st.lists(
    st.builds(ReadRequest, st.sampled_from("abc"), st.integers(0, 300), st.integers(1, 60)),
    max_size=40,
)


@given(_REQUESTS, st.integers(0, 80), st.frozensets(st.integers(0, 1000), max_size=5))
def test_coalesce_laws_property(requests, max_gap, survivors):
    plan = ScanPlan(tuple(requests), survivors)
    merged = coalesce_requests(plan, max_gap)
    assert merged.request_count <= plan.request_count
    assert merged.survivors == plan.survivors
    assert {r.obj for r in merged.requests} == {r.obj for r in requests}
    for obj in {r.obj for r in requests}:
        spans = [(r.offset, r.offset + r.length) for r in merged.requests if r.obj == obj]
        # sorted, disjoint, and more than max_gap apart
        assert all(b0 - a1 > max_gap for (_, a1), (b0, _) in zip(spans, spans[1:]))
        for r in requests:
            if r.obj == obj:
                inside = [s for s in spans if s[0] <= r.offset and r.offset + r.length <= s[1]]
                assert len(inside) == 1
    ranges = sorted((r.obj, r.offset, r.offset + r.length) for r in requests)
    if all(a[0] != b[0] or a[2] <= b[1] for a, b in zip(ranges, ranges[1:])):
        assert merged.total_bytes >= plan.total_bytes


def test_fleet_scan_projection_exact():
    comp = fleet_scan_projection(10 * PB, 10 * KB, 5, MB)
    assert comp.pushdown_requests == 10**12
    assert comp.full_scan_bytes == 50 * PB
    assert comp.full_scan_requests == 5 * 10**10
    assert comp.full_scan_requests * 20 == comp.pushdown_requests
    comp50 = fleet_scan_projection(50 * PB, 10 * KB, 5, MB)
    assert comp50.pushdown_requests == 5 * 10**12
    assert comp50.full_scan_requests == 25 * 10**10


def test_fleet_scan_projection_identity():
    comp = fleet_scan_projection(MB, KB, 1, KB)
    assert comp.pushdown_requests == comp.full_scan_requests == 1000
    assert comp.pushdown_bytes == comp.full_scan_bytes == MB


def test_fleet_scan_projection_validation():
    with pytest.raises(ValueError):
        fleet_scan_projection(0, KB, 5, MB)
    with pytest.raises(ValueError):
        fleet_scan_projection(MB, 0, 5, MB)
    with pytest.raises(ValueError):
        fleet_scan_projection(MB, KB, 0, MB)
    with pytest.raises(ValueError):
        fleet_scan_projection(MB, KB, 5, 0)


def test_layout_json_roundtrip(tmp_path):
    spec = {
        "table": "events",
        "rows": 1000,
        "columns": [
            {"name": "ts", "page_bytes": "1KB", "value_bytes": 8},
            {"name": "uid", "page_bytes": 512, "value_bytes": 4},
        ],
    }
    layout = layout_from_dict(spec)
    assert layout.table == "events"
    assert layout.column("ts").pages[0].rows == 125
    path = tmp_path / "layout.json"
    path.write_text(json.dumps(spec))
    assert layout_from_dict(load_json(str(path), "layout file")) == layout


@pytest.mark.parametrize(
    "spec,needle",
    [
        ({}, "table"),
        ({"table": "t"}, "rows"),
        ({"table": "t", "rows": 5}, "columns"),
        ({"table": "t", "rows": 5, "columns": [{}]}, "name"),
        ({"table": "t", "rows": 5, "columns": [{"name": "A"}]}, "page_bytes"),
    ],
)
def test_layout_json_errors(spec, needle):
    with pytest.raises(ValueError, match=needle):
        layout_from_dict(spec)


def test_query_json():
    select, predicates, pushdown = query_from_dict(
        {"select": ["B", "C"], "where": [{"col": "A", "op": ">", "lit": 15}], "pushdown": False}
    )
    assert select == ["B", "C"]
    assert predicates == [Predicate("A", ">", 15)]
    assert pushdown is False
    # defaults
    _, none_preds, default_push = query_from_dict({"select": ["A"]})
    assert none_preds == [] and default_push is True


@pytest.mark.parametrize(
    "spec,needle",
    [
        ({"select": "A"}, "select"),
        ({"select": [], "where": [{"col": "A", "op": "!", "lit": 1}]}, "op"),
        ({"select": [], "where": [{"col": "A", "op": ">"}]}, "lit"),
        ({"select": [], "where": [{"op": ">", "lit": 1}]}, "col"),
        ({"select": ["A"], "pushdown": "yes"}, "pushdown"),
    ],
)
def test_query_json_errors(spec, needle):
    with pytest.raises(ValueError, match=needle):
        query_from_dict(spec)


def test_load_query(tmp_path):
    path = tmp_path / "q.json"
    path.write_text('{"select": ["A"], "where": [], "pushdown": true}')
    select, predicates, pushdown = query_from_dict(load_json(str(path), "query file"))
    assert select == ["A"] and predicates == [] and pushdown is True


def test_synthesize_column_data_deterministic():
    layout = build_layout(100, [("A", 64, 4), ("B", 64, 4)])
    a = synthesize_column_data(layout, seed=5)
    b = synthesize_column_data(layout, seed=5)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[name], b[name]) for name in a)
    assert set(a) == {"A", "B"}
    assert all(0 <= v < 100 for v in a["A"])
