"""Columnar file geometry and scan planning with predicate pushdown.

A table is laid out as one object whose columns are stored as runs of
fixed-size pages. A scan turns into one ranged read per needed page;
with pushdown enabled, later predicate columns and the projection only
read pages that still contain surviving rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .units import REQUIRED, ceil_div, check_fields, exact_fraction

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

# Most pages a layout may hold: every page is built as an object.
MAX_LAYOUT_PAGES = 10**6


@dataclass(frozen=True)
class Page:
    """One page of one column: a row range mapped to a byte range."""

    start_row: int
    rows: int
    offset: int
    length: int


@dataclass(frozen=True)
class Column:
    name: str
    value_bytes: int
    pages: tuple[Page, ...]


@dataclass(frozen=True)
class TableLayout:
    table: str
    rows: int
    columns: tuple[Column, ...]

    def column(self, name: str) -> Column:
        for col in self.columns:
            if col.name == name:
                return col
        known = ", ".join(c.name for c in self.columns)
        raise ValueError(f"unknown column {name!r} (table {self.table!r} has: {known})")


def build_layout(rows: int, columns, table: str = "t") -> TableLayout:
    """Pack columns greedily into pages.

    ``columns`` is a sequence of (name, page_bytes, value_bytes).
    Each page holds floor(page_bytes / value_bytes) rows, the last page
    of a column may be partial. Columns are laid out back to back in
    one file object. At most ``MAX_LAYOUT_VALUES`` rows x columns and
    ``MAX_LAYOUT_PAGES`` pages, both checked before any page is built.
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
    pages_total = sum(ceil_div(rows, page // value) for _, page, value in specs)
    if pages_total > MAX_LAYOUT_PAGES:
        raise ValueError(
            f"layout needs {pages_total} pages, more than the limit of {MAX_LAYOUT_PAGES}"
        )
    built = []
    offset = 0
    for name, page_bytes, value_bytes in specs:
        rows_per_page = page_bytes // value_bytes
        pages = []
        for start in range(0, rows, rows_per_page):
            n = min(rows_per_page, rows - start)
            pages.append(Page(start_row=start, rows=n, offset=offset, length=n * value_bytes))
            offset += n * value_bytes
        built.append(Column(name=name, value_bytes=value_bytes, pages=tuple(pages)))
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


def _row_array(rows, n: int, what: str) -> np.ndarray:
    """``rows`` (an iterable of row indices) as an int64 array, each in [0, n)."""
    if isinstance(rows, range):
        arr = np.arange(rows.start, rows.stop, rows.step, dtype=np.int64)
    elif isinstance(rows, np.ndarray):
        arr = rows
    else:
        arr = np.fromiter(rows, dtype=np.int64)
    bad = (arr < 0) | (arr >= n)
    if bad.any():
        raise ValueError(f"{what} {arr[bad][0]} out of range for {n} rows")
    return arr


def apply_predicate(values, pred: Predicate, candidates) -> set[int]:
    """Rows among ``candidates`` whose value satisfies the predicate."""
    values = np.asarray(values, dtype=np.int64)
    rows = _row_array(candidates, len(values), "candidate row")
    return set(rows[_OPS[pred.op](values[rows], pred.literal)].tolist())


def pages_for_rows(layout: TableLayout, column: str, rows) -> set[int]:
    """Page ids of ``column`` whose row ranges intersect ``rows``."""
    col = layout.column(column)
    rows = _row_array(rows, layout.rows, "row index")
    # Pages are packed uniformly except the last, so the page id is a
    # direct division by the full-page row count.
    ids = np.minimum(rows // col.pages[0].rows, len(col.pages) - 1)
    return set(np.unique(ids).tolist())


@dataclass(frozen=True)
class ReadRequest:
    """One ranged GET: ``length`` bytes of object ``obj`` from ``offset``."""

    obj: str
    offset: int
    length: int


@dataclass(frozen=True)
class ScanPlan:
    """The ranged reads a scan issues, in issue order, and the surviving rows.

    The request count and byte total are derived from the reads, so a
    plan cannot disagree with itself.
    """

    requests: tuple[ReadRequest, ...]
    survivors: frozenset[int]

    @property
    def request_count(self) -> int:
        return len(self.requests)

    @property
    def total_bytes(self) -> int:
        return sum(r.length for r in self.requests)


def plan_scan(layout: TableLayout, data, projection, predicates, pushdown: bool = True) -> ScanPlan:
    """Plan a scan, either with predicate pushdown or as a full scan.

    The scan steps through the predicate columns in order, then the
    projection. Each step reads the pages of its column not read yet:
    every page for the first step or a full scan, otherwise (pushdown)
    only the pages that intersect the rows surviving the predicates so
    far. Both modes compute identical survivor sets.
    """
    steps = [(p.column, p) for p in predicates] + [(name, None) for name in projection]
    if not steps:
        raise ValueError("scan references no columns (empty projection with no predicates)")
    for name in dict.fromkeys(name for name, _ in steps):
        layout.column(name)
        if name not in data:
            raise ValueError(f"no data supplied for column {name!r}")
        if len(data[name]) != layout.rows:
            raise ValueError(
                f"column {name!r} has {len(data[name])} values for {layout.rows} rows"
            )
    survivors = range(layout.rows)
    read: set[int] = set()  # offsets of the pages requested so far
    requests: list[ReadRequest] = []
    for i, (name, pred) in enumerate(steps):
        pages = layout.column(name).pages
        ids = pages_for_rows(layout, name, survivors) if pushdown and i > 0 else range(len(pages))
        for page in (pages[pid] for pid in sorted(ids)):
            if page.offset not in read:
                read.add(page.offset)
                requests.append(ReadRequest(layout.table, page.offset, page.length))
        if pred is not None:
            survivors = apply_predicate(data[name], pred, survivors)
    return ScanPlan(tuple(requests), frozenset(survivors))


def coalesce_requests(plan: ScanPlan, max_gap: int) -> ScanPlan:
    """Merge requests on the same object whose gap is at most ``max_gap``.

    Gap bytes are counted as transferred, so merging trades bytes for
    request count. Requests shrink or stay equal in number, bytes grow
    or stay equal, survivors are untouched. The merged requests come out
    sorted by object and offset.
    """
    if max_gap < 0:
        raise ValueError(f"max gap must be >= 0, got {max_gap}")
    runs: list[list] = []  # [obj, start, end] of each merged request
    for req in sorted(plan.requests, key=lambda r: (r.obj, r.offset, r.length)):
        if runs and runs[-1][0] == req.obj and req.offset - runs[-1][2] <= max_gap:
            runs[-1][2] = max(runs[-1][2], req.offset + req.length)
        else:
            runs.append([req.obj, req.offset, req.offset + req.length])
    return ScanPlan(
        tuple(ReadRequest(obj, start, end - start) for obj, start, end in runs), plan.survivors
    )


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
