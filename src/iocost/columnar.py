"""Columnar file geometry and scan planning with predicate pushdown.

A table is laid out as one object whose columns are stored as runs of
fixed-size pages, so a page's rows and bytes are arithmetic on its
index. A scan turns into one ranged read per needed page, held as int64
offset and length arrays; with pushdown enabled, later predicate
columns and the projection only read pages that still contain
surviving rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .units import MAX_TRACE_INT, REQUIRED, ceil_div, check_fields, exact_fraction

_OPS = {
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}

# Most values (rows x columns) a layout may hold, which bounds the
# column data a scan synthesizes for it.
MAX_LAYOUT_VALUES = 10**7

# Most pages a layout may hold, which bounds a plan to 16 MB: one int64
# offset and one int64 length a page. A layout's file bytes (rows x
# value_bytes over its columns) must also fit int64 (MAX_TRACE_INT), so
# every offset, length and coalesced end does.
MAX_LAYOUT_PAGES = 10**6


@dataclass(frozen=True)
class Column:
    """One column: ``pages`` pages of ``rows_per_page`` rows from byte ``offset``.

    Page ``i`` holds rows ``[i * rows_per_page, min((i + 1) * rows_per_page,
    rows))`` at ``offset + i * rows_per_page * value_bytes``.
    """

    name: str
    value_bytes: int
    offset: int
    rows_per_page: int
    pages: int


@dataclass(frozen=True)
class TableLayout:
    table: str
    rows: int
    columns: tuple[Column, ...]

    @cached_property
    def _by_name(self) -> dict[str, Column]:
        # Built once, so a scan looks up each of thousands of columns in constant time.
        return {col.name: col for col in self.columns}

    def column(self, name: str) -> Column:
        col = self._by_name.get(name)
        if col is None:
            known = ", ".join(c.name for c in self.columns)
            raise ValueError(f"unknown column {name!r} (table {self.table!r} has: {known})")
        return col


def build_layout(rows: int, columns, table: str = "t") -> TableLayout:
    """Pack columns greedily into pages.

    ``columns`` is a sequence of (name, page_bytes, value_bytes).
    Each page holds floor(page_bytes / value_bytes) rows, the last page
    of a column may be partial. Columns are laid out back to back in
    one file object. At most ``MAX_LAYOUT_VALUES`` rows x columns,
    ``MAX_LAYOUT_PAGES`` pages and ``MAX_TRACE_INT`` file bytes, all
    checked before anything is planned.
    """
    if rows < 1:
        raise ValueError(f"row count must be >= 1, got {rows}")
    specs = list(columns)
    if not specs:
        raise ValueError("layout needs at least one column")
    if rows * len(specs) > MAX_LAYOUT_VALUES:
        raise ValueError(
            f"{rows} rows x {len(specs)} columns exceeds the limit of {MAX_LAYOUT_VALUES} values"
        )
    names = [name for name, _, _ in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate column names in layout: {names}")
    for name, page_bytes, value_bytes in specs:
        if not name:
            raise ValueError("column name must be non-empty")
        if value_bytes < 1:
            raise ValueError(f"column {name!r}: value_bytes must be >= 1, got {value_bytes}")
        if page_bytes < value_bytes:
            raise ValueError(
                f"column {name!r}: page_bytes {page_bytes} smaller than value_bytes {value_bytes}"
            )
    built, offset = [], 0
    for name, page_bytes, value_bytes in specs:
        # A page larger than the column holds every row in one page.
        rows_per_page = min(page_bytes // value_bytes, rows)
        pages = ceil_div(rows, rows_per_page)
        built.append(Column(name, value_bytes, offset, rows_per_page, pages))
        offset += rows * value_bytes
    pages_total = sum(col.pages for col in built)
    if pages_total > MAX_LAYOUT_PAGES:
        raise ValueError(
            f"layout needs {pages_total} pages, more than the limit of {MAX_LAYOUT_PAGES}"
        )
    if offset > MAX_TRACE_INT:
        raise ValueError(f"layout needs {offset} bytes, more than the limit of {MAX_TRACE_INT}")
    return TableLayout(table=table, rows=rows, columns=tuple(built))


@dataclass(frozen=True)
class Predicate:
    """A comparison of one column against an integer literal."""

    column: str
    op: str
    literal: int

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"unknown comparator {self.op!r} (supported: {sorted(_OPS)})")

    def matches(self, value: int) -> bool:
        return _OPS[self.op](value, self.literal)


def apply_predicate(values, pred: Predicate, candidates) -> set[int]:
    """Rows among ``candidates`` (row indices) whose value satisfies the predicate."""
    values = np.asarray(values, dtype=np.int64)
    rows = np.fromiter(candidates, dtype=np.int64)
    bad = (rows < 0) | (rows >= len(values))
    if bad.any():
        raise ValueError(f"candidate row {rows[bad][0]} out of range for {len(values)} rows")
    return set(rows[_OPS[pred.op](values[rows], pred.literal)].tolist())


@dataclass(frozen=True, eq=False)
class ScanPlan:
    """The ranged reads a scan issues on object ``obj``, and the surviving rows.

    Read ``i`` is ``lengths[i]`` bytes from ``offsets[i]``; both are
    int64 arrays in issue order, and every ``offset + length`` fits
    int64. The request count and byte total are derived from the reads,
    so a plan cannot disagree with itself. ``mask`` is a boolean array,
    true at each surviving row.
    """

    obj: str
    offsets: np.ndarray
    lengths: np.ndarray
    mask: np.ndarray

    @property
    def survivors(self) -> frozenset[int]:
        """The surviving rows, built from ``mask`` on each read."""
        return frozenset(np.flatnonzero(self.mask).tolist())

    @property
    def survivor_count(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def request_count(self) -> int:
        return len(self.offsets)

    @property
    def total_bytes(self) -> int:
        return sum(self.lengths.tolist())


def query_columns(layout: TableLayout, projection, predicates) -> list[str]:
    """The distinct columns a query reads, in scan order, each checked against ``layout``."""
    names = list(dict.fromkeys([p.column for p in predicates] + list(projection)))
    if not names:
        raise ValueError("scan references no columns (empty projection with no predicates)")
    for name in names:
        layout.column(name)
    return names


def plan_scan(layout: TableLayout, data, projection, predicates, pushdown: bool = True) -> ScanPlan:
    """Plan a scan, either with predicate pushdown or as a full scan.

    The scan steps through the predicate columns in order, then the
    projection. Each step reads the pages of its column not read yet,
    in page order: every page for the first step or a full scan,
    otherwise (pushdown) only the pages that hold a row surviving the
    predicates so far. Both modes compute identical survivor sets.
    ``data`` maps each column the query reads to its values, an int64
    array or a list of 64-bit integers.
    """
    steps = [(p.column, p) for p in predicates] + [(name, None) for name in projection]
    for name in query_columns(layout, projection, predicates):
        if name not in data:
            raise ValueError(f"no data supplied for column {name!r}")
        if len(data[name]) != layout.rows:
            raise ValueError(
                f"column {name!r} has {len(data[name])} values for {layout.rows} rows"
            )
    survivors = np.ones(layout.rows, dtype=bool)
    read: dict[str, np.ndarray] = {}  # each column's pages requested so far
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
            survivors &= _OPS[pred.op](np.asarray(data[name], dtype=np.int64), pred.literal)
    return ScanPlan(layout.table, np.concatenate(offsets), np.concatenate(lengths), survivors)


def coalesce_requests(plan: ScanPlan, max_gap: int) -> ScanPlan:
    """Merge requests whose gap is at most ``max_gap``.

    Gap bytes are counted as transferred, so merging trades bytes for
    request count. Requests shrink or stay equal in number, bytes grow
    or stay equal, survivors are untouched. The merged requests come out
    sorted by offset.
    """
    if max_gap < 0:
        raise ValueError(f"max gap must be >= 0, got {max_gap}")
    order = np.argsort(plan.offsets, kind="stable")
    offsets = plan.offsets[order]
    # The furthest end of each read and every read sorted before it.
    ends = np.maximum.accumulate(offsets + plan.lengths[order])
    # A read starts a new request when it begins more than max_gap past
    # that end; no gap between int64 offsets exceeds MAX_TRACE_INT.
    first = np.ones(len(offsets), dtype=bool)
    first[1:] = offsets[1:] - ends[:-1] > min(max_gap, MAX_TRACE_INT)
    last = np.roll(first, -1)
    return ScanPlan(plan.obj, offsets[first], ends[last] - offsets[first], plan.mask)


@dataclass(frozen=True)
class FleetScanComparison:
    """Daily fleet-level request and byte totals, pushdown vs. full scan."""

    pushdown_bytes: int
    pushdown_requests: int
    full_scan_bytes: int
    full_scan_requests: int


def fleet_scan_projection(
    daily_bytes: int,
    avg_request_bytes: int,
    inflation: float | int | Fraction,
    page_bytes: int,
) -> FleetScanComparison:
    """Fleet-level projection of scan traffic with and without pushdown.

    With pushdown the fleet moves ``daily_bytes`` in reads averaging
    ``avg_request_bytes``. Without it, scans read ``inflation`` times
    as many bytes, but in full pages, so requests are counted at
    ``page_bytes`` apiece.
    """
    if daily_bytes <= 0:
        raise ValueError(f"daily bytes must be > 0, got {daily_bytes}")
    if avg_request_bytes <= 0:
        raise ValueError(f"average request bytes must be > 0, got {avg_request_bytes}")
    if page_bytes <= 0:
        raise ValueError(f"page bytes must be > 0, got {page_bytes}")
    factor = exact_fraction(inflation)
    if factor <= 0:
        raise ValueError(f"inflation factor must be > 0, got {inflation}")
    full_bytes = int(factor * daily_bytes)
    return FleetScanComparison(
        pushdown_bytes=daily_bytes,
        pushdown_requests=ceil_div(daily_bytes, avg_request_bytes),
        full_scan_bytes=full_bytes,
        full_scan_requests=ceil_div(full_bytes, page_bytes),
    )


def synthesize_column_data(layout: TableLayout, seed: int) -> dict:
    """Deterministic integer column data for a layout.

    Each column is an int64 array of values uniform over [0, 100),
    drawn column by column in layout order, so predicates with literals
    in that range have predictable selectivity.
    """
    rng = np.random.default_rng(seed)
    return {
        col.name: rng.integers(0, 100, size=layout.rows, dtype=np.int64)
        for col in layout.columns
    }


_COLUMN_FIELDS = (
    ("name", "str", REQUIRED, None),
    ("page_bytes", "bytes", REQUIRED, None),
    ("value_bytes", "bytes", REQUIRED, 1),
)
_LAYOUT_FIELDS = (
    ("table", "str", REQUIRED, None),
    ("rows", "int", REQUIRED, 1),
    ("columns", [_COLUMN_FIELDS], REQUIRED, 1),
)
_PREDICATE_FIELDS = (
    ("col", "str", REQUIRED, None),
    ("op", tuple(_OPS), REQUIRED, None),
    ("lit", "int", REQUIRED, None),
)
_QUERY_FIELDS = (
    ("select", "strs", (), None),
    ("where", [_PREDICATE_FIELDS], (), None),
    ("pushdown", "bool", True, None),
)


def layout_from_dict(spec: dict) -> TableLayout:
    """Build a layout from its JSON form.

    Schema: {"table": str, "rows": int, "columns": [{"name": str,
    "page_bytes": int, "value_bytes": int}]}. Byte fields also accept
    decimal-suffix strings such as "1MB".
    """
    f = check_fields(spec, _LAYOUT_FIELDS, "layout")
    columns = [(c["name"], c["page_bytes"], c["value_bytes"]) for c in f["columns"]]
    return build_layout(f["rows"], columns, table=f["table"])


def query_from_dict(spec: dict):
    """Parse a query's JSON form into (projection, predicates, pushdown).

    Schema: {"select": [str...], "where": [{"col": str, "op": str,
    "lit": int}], "pushdown": bool}. "where" defaults to no predicates
    and "pushdown" to true.
    """
    f = check_fields(spec, _QUERY_FIELDS, "query")
    predicates = [Predicate(column=p["col"], op=p["op"], literal=p["lit"]) for p in f["where"]]
    return list(f["select"]), predicates, f["pushdown"]
