"""Layout packing, scan planning, pushdown equivalence, coalescing."""

import dataclasses
import json
import random
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from iocost.columnar import (
    MAX_LAYOUT_PAGES,
    MAX_LAYOUT_VALUES,
    Predicate,
    ScanPlan,
    apply_predicate,
    build_layout,
    coalesce_requests,
    fleet_scan_projection,
    layout_from_dict,
    plan_scan,
    query_from_dict,
    synthesize_column_data,
)
from iocost.pricing import RequestTally, get_pricebook
from iocost.trace import Trace
from iocost.tracemodel import read_trace, write_trace
from iocost.units import KB, MAX_TRACE_INT, MB, PB, load_json

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
        col.offset + pid * col.rows_per_page * col.value_bytes: (col.name, pid)
        for col in layout.columns
        for pid in range(col.pages)
    }
    return [by_offset[offset] for offset in plan.reads.off.tolist()]


def full_scan(layout):
    """The full scan of every column of ``layout``, over all-zero data."""
    names = [col.name for col in layout.columns]
    data = {name: np.zeros(layout.rows, dtype=np.int64) for name in names}
    return plan_scan(layout, data, names, [], pushdown=False)


def spans_plan(spans, survivors=frozenset()):
    """A plan on object "o" reading the (offset, length) ``spans`` in order."""
    offsets, lengths = zip(*spans) if spans else ((), ())
    mask = np.zeros(max(survivors, default=-1) + 1, dtype=bool)
    mask[list(survivors)] = True
    reads = Trace._gets_on("o", np.array(offsets, dtype=np.int64), np.array(lengths, dtype=np.int64))
    return ScanPlan(reads, mask)


def spans_of(plan):
    return list(zip(plan.reads.off.tolist(), plan.reads.length.tolist()))


# Offsets near 0 and near the int64 end, each read ending at or before
# MAX_TRACE_INT; gaps of 0, small, at the int64 end and past it.
_EDGE_OFFSETS = st.integers(0, 300) | st.integers(MAX_TRACE_INT - 300, MAX_TRACE_INT - 1)
_SPANS = st.lists(
    st.builds(lambda off, n: (off, min(n, MAX_TRACE_INT - off)), _EDGE_OFFSETS, st.integers(1, 60)),
    max_size=40,
)
_GAPS = st.integers(0, 80) | st.sampled_from([0, MAX_TRACE_INT - 1, MAX_TRACE_INT, 10**21])


def _coalesce_oracle(spans, max_gap):
    """The loop coalescer: sort (offset, length) pairs, extend or start a run."""
    runs = []  # [start, end] of each merged request
    for offset, length in sorted(spans):
        if runs and offset - runs[-1][1] <= max_gap:
            runs[-1][1] = max(runs[-1][1], offset + length)
        else:
            runs.append([offset, offset + length])
    return [(start, end - start) for start, end in runs]


_Page = namedtuple("_Page", "start_row rows offset length")


def _oracle_pages(rows, specs):
    """One object per page of each column, packed one page at a time."""
    pages, offset = {}, 0
    for name, page_bytes, value_bytes in specs:
        rows_per_page = page_bytes // value_bytes
        pages[name] = []
        for start in range(0, rows, rows_per_page):
            n = min(rows_per_page, rows - start)
            pages[name].append(_Page(start, n, offset, n * value_bytes))
            offset += n * value_bytes
    return pages


def _plan_oracle(rows, specs, data, projection, predicates, pushdown):
    """The per-page object planner: (offset, length) reads in issue order, survivors.

    Each step walks its column's pages in order and requests those not
    requested yet: all of them for the first step or a full scan, else
    those whose row range holds a survivor. Survivors are a Python set
    filtered with ``Predicate.matches``, so no value is converted.
    """
    pages = _oracle_pages(rows, specs)
    steps = [(p.column, p) for p in predicates] + [(name, None) for name in projection]
    survivors = set(range(rows))
    read, requests = set(), []
    for i, (name, pred) in enumerate(steps):
        for page in pages[name]:
            holds = survivors.intersection(range(page.start_row, page.start_row + page.rows))
            if (not pushdown or i == 0 or holds) and page.offset not in read:
                read.add(page.offset)
                requests.append((page.offset, page.length))
        if pred is not None:
            survivors = {r for r in survivors if pred.matches(data[name][r])}
    return requests, survivors


def test_build_layout_packing():
    layout = build_layout(8, [("A", 16, 4)])
    col = layout.column("A")
    assert (col.offset, col.rows_per_page, col.pages) == (0, 4, 2)
    plan = full_scan(layout)
    assert plan.reads.off.tolist() == [0, 16] and plan.reads.length.tolist() == [16, 16]
    one = build_layout(8, [("A", 400, 4)])
    assert (one.column("A").pages, one.column("A").rows_per_page) == (1, 8)
    assert full_scan(one).reads.length.tolist() == [32]
    # the last page of a column is partial, and the next column follows it
    two = build_layout(10, [("A", 16, 4), ("B", 8, 4)])
    assert two.column("B").offset == 40
    plan = full_scan(two)
    assert plan.reads.off.tolist() == [0, 16, 32, 40, 48, 56, 64, 72]
    assert plan.reads.length.tolist() == [16, 16, 8] + [8] * 5


def test_build_layout_million_rows():
    layout = build_layout(10**6, [("x", MB, 8)])
    col = layout.column("x")
    assert (col.pages, col.rows_per_page) == (8, 125_000)
    plan = full_scan(layout)
    assert plan.reads.length.tolist() == [MB] * 8
    assert plan.total_bytes == 8 * 10**6


def test_build_layout_geometry_invariants():
    rng = random.Random(77)
    for _ in range(50):
        rows = rng.randint(1, 300)
        specs = [(f"c{i}", rng.randint(1, 64) * 4, 4) for i in range(rng.randint(1, 4))]
        layout = build_layout(rows, specs)
        # the full scan reads each column's pages once, in page order
        reads = spans_of(full_scan(layout))
        pages = _oracle_pages(rows, specs)
        assert reads == [(page.offset, page.length) for name, _, _ in specs for page in pages[name]]
        for col in layout.columns:
            assert col.pages == -(-rows // col.rows_per_page)
        # the pages tile the file: back to back, no overlap, no hole
        assert reads[0][0] == 0
        for (offset, length), (next_offset, _) in zip(reads, reads[1:]):
            assert offset + length == next_offset
        assert sum(length for _, length in reads) == rows * 4 * len(specs)


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
        (5, [("", 16, 4)]),  # empty name
    ],
)
def test_build_layout_validation(rows, cols):
    with pytest.raises(ValueError):
        build_layout(rows, cols)


def test_build_layout_accepts_the_largest_table():
    layout = build_layout(MAX_LAYOUT_VALUES // 2, [("A", MB, 4), ("B", MB, 4)])
    assert sum(c.pages for c in layout.columns) == 2 * 20


def test_build_layout_byte_limit():
    # file bytes up to MAX_TRACE_INT are planned exactly, one more is refused
    half = MAX_TRACE_INT // 2
    layout = build_layout(1, [("A", half, half), ("B", 10**30, half + 1)])
    plan = full_scan(layout)
    assert plan.reads.off.tolist() == [0, half] and plan.reads.length.tolist() == [half, half + 1]
    assert plan.total_bytes == MAX_TRACE_INT
    assert coalesce_requests(plan, 0).reads.length.tolist() == [MAX_TRACE_INT]
    with pytest.raises(ValueError, match="bytes, more than the limit of 9223372036854775807"):
        build_layout(1, [("A", half, half), ("B", half + 2, half + 2)])
    with pytest.raises(ValueError, match="20000000000000000000 bytes"):
        build_layout(10, [("A", 10**18, 10**18), ("B", 10**18, 10**18)])


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


def pages_holding(layout, name, rows):
    """Page ids of ``name`` whose row range holds one of ``rows``."""
    rpp = layout.column(name).rows_per_page
    return {
        pid for pid in range(layout.column(name).pages)
        if any(pid * rpp <= r < min((pid + 1) * rpp, layout.rows) for r in rows)
    }


def test_pushdown_reads_the_pages_of_survivors():
    layout = demo_layout()  # two 4-row pages per column
    data = {**DEMO_DATA, "A": [0] * 8}
    for survivors, pages in [(set(), []), (range(8), [0, 1]), ({1, 4, 6}, [0, 1]), ({1}, [0])]:
        data["A"] = [1 if r in survivors else 0 for r in range(8)]
        plan = plan_scan(layout, data, ["C"], [Predicate("A", "=", 1)], pushdown=True)
        assert plan.survivors == set(survivors)
        assert pages_read(layout, plan) == [("A", 0), ("A", 1)] + [("C", pid) for pid in pages]


def test_pushdown_pages_match_interval_oracle():
    rng = random.Random(13)
    for _ in range(50):
        rows = rng.randint(1, 200)
        layout = build_layout(rows, [(name, rng.randint(1, 32) * 8, 8) for name in "AB"])
        wanted = {rng.randrange(rows) for _ in range(rng.randint(0, 20))}
        data = {"A": [int(r in wanted) for r in range(rows)], "B": [0] * rows}
        plan = plan_scan(layout, data, ["B"], [Predicate("A", "=", 1)], pushdown=True)
        pages_b = [pid for name, pid in pages_read(layout, plan) if name == "B"]
        assert pages_b == sorted(pages_holding(layout, "B", wanted))


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


class _CountedColumns(tuple):
    """A layout's columns that count the scans over them."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_plan_scan_finds_columns_without_scanning_the_layout_per_column():
    layout = build_layout(1, [(f"c{i}", 8, 8) for i in range(1000)])
    names = [col.name for col in layout.columns]
    columns = _CountedColumns(layout.columns)
    layout = dataclasses.replace(layout, columns=columns)
    plan = plan_scan(layout, {name: [0] for name in names}, names, [])
    assert plan.request_count == 1000
    # One scan builds the name index; a scan per lookup made it quadratic.
    assert columns.scans <= 2


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
        assert plan.reads.off.dtype == plan.reads.length.dtype == np.int64
        assert plan.request_count == len(plan.reads.off) == len(plan.reads.length)
        assert plan.total_bytes == sum(plan.reads.length.tolist())
        assert type(plan.total_bytes) is int and type(plan.request_count) is int
        lengths = sum(plan.reads.length.tolist())
        assert plan.reads.tally() == RequestTally({"get": plan.request_count}, {"get": lengths})
        spans = sorted(zip(plan.reads.off.tolist(), (plan.reads.off + plan.reads.length).tolist()))
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


def test_plan_reads_round_trip_through_a_trace_file(tmp_path):
    # A plan's reads are a trace: write_trace then read_trace gives the same columns.
    rng = random.Random(15)
    path = tmp_path / "reads.jsonl"
    for _ in range(40):
        layout, data, projection, predicates = _random_case(rng)
        plan = plan_scan(layout, data, projection, predicates, pushdown=rng.random() < 0.5)
        if rng.random() < 0.5:
            plan = coalesce_requests(plan, rng.randint(0, 64))
        write_trace(plan.reads, str(path))
        back = read_trace(str(path))
        assert back.objects == plan.reads.objects == (layout.table,)
        for name in ("ts_ms", "obj", "off", "length", "kind"):
            assert np.array_equal(getattr(back, name), getattr(plan.reads, name)), name
            assert getattr(back, name).dtype == getattr(plan.reads, name).dtype, name


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


# int32 values at and near both ends of int32; constants also past
# int32, and at and past both ends of int64.
_NEAR_INT32_ENDS = st.sampled_from([-(2**31), -(2**31) + 1, -1, 0, 1, 2**31 - 2, 2**31 - 1])
_PAST_INT32_CONSTANTS = _NEAR_INT32_ENDS | st.sampled_from(
    [-(2**31) - 1, 2**31, -(2**40), 2**40, -(2**63) - 1, -(2**63), 2**63 - 1, 2**63])


@given(
    st.lists(st.tuples(_NEAR_INT32_ENDS, _NEAR_INT32_ENDS), min_size=1, max_size=40),
    st.lists(
        st.builds(Predicate, st.sampled_from("AB"), st.sampled_from(["<", "<=", "=", ">=", ">"]),
                  _PAST_INT32_CONSTANTS),
        max_size=3,
    ),
    st.sampled_from([[], ["A"], ["B"], ["A", "B"]]),
    st.integers(1, 4),
)
def test_pushdown_survivors_on_int32_columns_property(rows, predicates, projection, values_per_page):
    # Synthesized columns are int32 and are compared in their own dtype.
    if not predicates and not projection:
        projection = ["A"]
    layout = build_layout(len(rows), [(name, 4 * values_per_page, 4) for name in "AB"])
    values = dict(zip("AB", (list(column) for column in zip(*rows))))
    data = {name: np.array(column, dtype=np.int32) for name, column in values.items()}
    on = plan_scan(layout, data, projection, predicates, pushdown=True)
    off = plan_scan(layout, data, projection, predicates, pushdown=False)
    oracle = {i for i in range(len(rows)) if all(p.matches(values[p.column][i]) for p in predicates)}
    assert set(on.survivors) == set(off.survivors) == oracle
    assert on.total_bytes <= off.total_bytes


@pytest.mark.parametrize("literal", [-(2**63) - 1, -(2**63), -(2**40), 50, 2**40, 2**63 - 1, 2**63])
@pytest.mark.parametrize("op", ["<", "<=", "=", ">=", ">"])
def test_int32_columns_plan_as_their_int64_values(op, literal):
    layout = build_layout(1000, [("A", 400, 4), ("B", 400, 4)])
    data32 = synthesize_column_data(layout, seed=3)
    data64 = {name: column.astype(np.int64) for name, column in data32.items()}
    lists = {name: column.tolist() for name, column in data32.items()}
    predicates = [Predicate("A", op, literal), Predicate("B", "<", 50)]
    for pushdown in (True, False):
        plans = [plan_scan(layout, data, ["B"], predicates, pushdown=pushdown)
                 for data in (data32, data64, lists)]
        for plan in plans[1:]:
            assert np.array_equal(plan.mask, plans[0].mask)
            assert np.array_equal(plan.reads.off, plans[0].reads.off)
            assert np.array_equal(plan.reads.length, plans[0].reads.length)


_COMPARATORS = ["<", "<=", "=", ">=", ">"]


@st.composite
def _scan_cases(draw):
    """A layout spec, data and query; some value widths fill the file to the int64 end."""
    rows = draw(st.integers(1, 40))
    names = "ABCD"[: draw(st.integers(1, 4))]
    widest = MAX_TRACE_INT // (rows * len(names))
    specs = []
    for name in names:
        value = draw(st.integers(1, 8) | st.just(widest))
        page = value * draw(st.integers(1, rows + 1)) + draw(st.integers(0, value - 1))
        specs.append((name, page, value))
    data = {n: draw(st.lists(_NEAR_INT64_ENDS | st.integers(0, 9), min_size=rows, max_size=rows))
            for n in names}
    predicates = draw(st.lists(
        st.builds(Predicate, st.sampled_from(names), st.sampled_from(_COMPARATORS),
                  _NEAR_CONSTANTS | st.integers(0, 9)),
        max_size=3,
    ))
    projection = draw(st.lists(st.sampled_from(names), unique=True, max_size=4))
    if not projection and not predicates:
        projection = [names[0]]
    return rows, specs, data, projection, predicates


@given(_scan_cases(), st.booleans(), _GAPS)
def test_plan_scan_equals_oracle_property(case, pushdown, max_gap):
    rows, specs, data, projection, predicates = case
    layout = build_layout(rows, specs)
    plan = plan_scan(layout, data, projection, predicates, pushdown=pushdown)
    requests, survivors = _plan_oracle(rows, specs, data, projection, predicates, pushdown)
    assert spans_of(plan) == requests
    assert plan.survivors == survivors
    assert plan.survivor_count == len(survivors)
    assert plan.reads.objects[0] == layout.table
    assert plan.total_bytes == sum(length for _, length in requests)
    merged = coalesce_requests(plan, max_gap)
    assert spans_of(merged) == _coalesce_oracle(requests, max_gap)


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
                pages = set(range(layout.column(pred.column).pages))
            else:
                pages = pages_holding(layout, pred.column, survivors)
            expected.setdefault(pred.column, set()).update(pages)
            survivors = apply_predicate(data[pred.column], pred, survivors)
        for name in projection:
            expected.setdefault(name, set()).update(pages_holding(layout, name, survivors))
        expected = {name: pages for name, pages in expected.items() if pages}
        assert by_column == expected
        # columns only projected never read a page without a survivor
        predicate_cols = {p.column for p in predicates}
        for name in projection:
            if name not in predicate_cols:
                assert by_column.get(name, set()) <= pages_holding(layout, name, survivors)


def test_coalesce_examples():
    layout = build_layout(50, [("A", 4, 4)])
    plan = plan_scan(layout, {"A": [1] * 50}, ["A"], [], pushdown=True)
    merged = coalesce_requests(plan, 0)
    assert merged.request_count == 1
    assert merged.total_bytes == plan.total_bytes == 200
    assert merged.survivors == plan.survivors


def test_coalesce_respects_gap():
    merged = coalesce_requests(spans_plan([(0, 100), (100, 100)]), 0)
    assert merged.reads.objects[0] == "o"
    assert spans_of(merged) == [(0, 200)]

    gapped = spans_plan([(150, 100), (0, 100)])
    assert spans_of(coalesce_requests(gapped, 10)) == [(0, 100), (150, 100)]  # gap 50 stays
    wide = coalesce_requests(gapped, 50)
    assert spans_of(wide) == [(0, 250)]  # the 50 gap bytes count as transferred
    # a read inside an earlier, longer one adds no bytes and no request
    assert spans_of(coalesce_requests(spans_plan([(0, 100), (10, 5), (120, 1)]), 10)) == [
        (0, 100), (120, 1),
    ]
    assert spans_of(coalesce_requests(spans_plan([]), 0)) == []
    with pytest.raises(ValueError, match="max gap"):
        coalesce_requests(gapped, -1)


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
        spans, offset = [], 0
        for gap in gaps + (None,):
            spans.append((offset, 2))
            if gap is None:
                break
            offset += 2 + gap
        plan = spans_plan(spans)
        for max_gap in (0, 1, 2, 3):
            merged = coalesce_requests(plan, max_gap)
            expected = 1
            for gap in gaps:
                if gap > max_gap:
                    expected += 1
            assert merged.request_count == expected
            assert merged.total_bytes == sum(merged.reads.length.tolist())


@given(_SPANS, _GAPS)
def test_coalesce_equals_oracle_property(spans, max_gap):
    merged = coalesce_requests(spans_plan(spans), max_gap)
    assert spans_of(merged) == _coalesce_oracle(spans, max_gap)


@given(_SPANS, _GAPS, st.frozensets(st.integers(0, 1000), max_size=5))
def test_coalesce_laws_property(spans, max_gap, survivors):
    plan = spans_plan(spans, survivors)
    merged = coalesce_requests(plan, max_gap)
    assert merged.request_count <= plan.request_count
    assert merged.survivors == plan.survivors
    assert merged.reads.objects[0] == plan.reads.objects[0]
    assert merged.reads.off.dtype == merged.reads.length.dtype == np.int64
    runs = [(offset, offset + length) for offset, length in spans_of(merged)]
    # sorted, disjoint, and more than max_gap apart
    assert all(b0 - a1 > max_gap for (_, a1), (b0, _) in zip(runs, runs[1:]))
    # every input byte is covered, by exactly one merged request
    for offset, length in spans:
        assert len([r for r in runs if r[0] <= offset and offset + length <= r[1]]) == 1
    ranges = sorted((offset, offset + length) for offset, length in spans)
    if all(a1 <= b0 for (_, a1), (b0, _) in zip(ranges, ranges[1:])):
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
    assert layout.column("ts").rows_per_page == 125
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


@pytest.mark.parametrize("seed", [0, 1, 5, 2**32 + 7])
@pytest.mark.parametrize("rows,columns", [(1, 1), (1000, 3), (4097, 2)])
def test_synthesize_column_data_draws_int32_equal_to_int64(seed, rows, columns):
    # The data is drawn as int32, and its values are the int64 draws of
    # the same generator, so every scan report is unchanged.
    layout = build_layout(rows, [(f"c{i}", 64, 4) for i in range(columns)])
    data = synthesize_column_data(layout, seed)
    rng = np.random.default_rng(seed)
    for col in layout.columns:
        assert data[col.name].dtype == np.int32
        assert np.array_equal(data[col.name], rng.integers(0, 100, size=rows, dtype=np.int64))


def test_synthesize_column_data_deterministic():
    layout = build_layout(100, [("A", 64, 4), ("B", 64, 4)])
    a = synthesize_column_data(layout, seed=5)
    b = synthesize_column_data(layout, seed=5)
    assert a.keys() == b.keys()
    assert all(np.array_equal(a[name], b[name]) for name in a)
    assert set(a) == {"A", "B"}
    assert all(0 <= v < 100 for v in a["A"])
