"""Storage access traces: ingestion, workload statistics, synthesis.

Traces are JSON-lines, one request per line:

    {"ts_ms": 12, "obj": "o0000042", "off": 0, "len": 8192, "kind": "get"}

Timestamps are milliseconds from the trace epoch. ``off`` and ``len``
default to 0 for non-ranged kinds. Lines are checked as they are read
into a ``Trace``, which holds typed columns. Statistics follow the
read-focused modeling scope of this package, so they are computed over
get records.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .units import KB, MB

TRACE_KINDS = ("get", "put", "post", "copy", "list", "head")

# Kinds that carry a byte range and therefore need len > 0.
RANGED_KINDS = frozenset({"get", "put"})

DEFAULT_BLOCK_BYTES = MB
DEFAULT_REUSE_THRESHOLD_MS = 7_200_000  # 2 hours

# Default size quantile anchors: half of accesses at or under 10 KB,
# 90% at or under 1 MB, everything capped at 100 MB.
DEFAULT_SIZE_ANCHORS = ((10 * KB, 0.5), (MB, 0.9), (100 * MB, 1.0))

# Calibrated by bisection so that with the default 10**6-object
# universe, the 10,000 most popular objects of a 10**6-record trace
# attract roughly 91% of requests.
DEFAULT_ZIPF_EXPONENT = 1.2

DEFAULT_OBJECT_UNIVERSE = 1_000_000
DEFAULT_DURATION_MS = 86_400_000  # one day

# Largest timestamp, offset, length and end offset a record may carry:
# the cache simulation expands byte ranges into int64 block indices.
MAX_TRACE_INT = 2**63 - 1

# Synthesis holds one float64 array of the universe's length: 80 MB at the cap.
MAX_OBJECT_UNIVERSE = 10**7

# Every synthesized record is a get touching at least one block, so a
# longer trace could not be simulated (cachesim.MAX_TRACE_TOUCHES).
# Synthesis peaks at about 72 bytes per record (measured from 10**6 to 3*10**6).
MAX_SYNTH_RECORDS = 10**8


class AccessRecord(NamedTuple):
    """One storage request: a row of a ``Trace``, unchecked."""

    ts_ms: int
    obj: str
    off: int
    length: int
    kind: str


# Kind codes of the ``kind`` column index TRACE_KINDS.
_KIND_CODES = {kind: code for code, kind in enumerate(TRACE_KINDS)}
GET = _KIND_CODES["get"]


class Trace:
    """Access records as typed columns, stably sorted by timestamp.

    ``ts_ms``, ``off`` and ``length`` are int64, ``obj`` int32 codes into
    ``objects`` and ``kind`` uint8 codes into ``TRACE_KINDS``. Rows are
    taken unchecked: trace files are checked line by line at ingest.
    """

    def __init__(self, rows=()) -> None:
        codes: dict[str, int] = {}
        columns = ts, obj, off, length, kind = [array(t) for t in ("q", "i", "q", "q", "B")]
        for t, o, a, n, k in rows:
            ts.append(t)
            obj.append(codes.setdefault(o, len(codes)))
            off.append(a)
            length.append(n)
            kind.append(_KIND_CODES[k])
        self._set_columns(tuple(codes), *columns)

    @classmethod
    def _from_columns(cls, objects, ts_ms, obj, off, length, kind) -> "Trace":
        """A trace of equal-length typed columns, unchecked, as ``Trace(rows)`` builds them."""
        trace = cls.__new__(cls)
        trace._set_columns(objects, ts_ms, obj, off, length, kind)
        return trace

    def _set_columns(self, objects, *columns) -> None:
        order = np.argsort(np.asarray(columns[0]), kind="stable")
        self.ts_ms, self.obj, self.off, self.length, self.kind = (np.asarray(c)[order] for c in columns)
        self.objects = objects

    def __len__(self) -> int:
        return len(self.ts_ms)

    def gets(self) -> list[AccessRecord]:
        """The get rows, in trace order."""
        get = self.kind == GET
        cols = [c[get].tolist() for c in (self.ts_ms, self.obj, self.off, self.length)]
        return [AccessRecord(t, self.objects[o], a, n, "get") for t, o, a, n in zip(*cols)]


def group_pairs(obj, block):
    """Positions grouped by (object, block) pair: ``(order, new)``.

    ``order`` is a stable lexsort, ascending within a pair (no pair id
    is built by a multiplication that could overflow int64); ``new[i]``
    is True where ``order[i]`` is its pair's first position.
    """
    order = np.lexsort((block, obj))
    new = np.ones(len(order), dtype=bool)
    # One sorted key at a time keeps the peak at one extra key array.
    key = obj[order]
    new[1:] = key[1:] != key[:-1]
    key = block[order]
    new[1:] |= key[1:] != key[:-1]
    return order, new


# The keys of a trace line, as ``trace_lines`` writes them.
_RECORD_KEYS = frozenset(("ts_ms", "obj", "off", "len", "kind"))


def _checked_row(obj) -> tuple:
    """The row of one trace line's JSON value; ValueError names its fault."""
    if not isinstance(obj, dict):
        raise ValueError("record must be a JSON object")
    if not _RECORD_KEYS.issuperset(obj):
        key = next(k for k in obj if k not in _RECORD_KEYS)
        raise ValueError(f"unknown field {key!r} (known: {', '.join(sorted(_RECORD_KEYS))})")
    for name in ("ts_ms", "obj", "kind"):
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    ts, name, kind = obj["ts_ms"], obj["obj"], obj["kind"]
    off, length = obj.get("off", 0), obj.get("len", 0)
    for field, value in (("ts_ms", ts), ("off", off), ("len", length)):
        if type(value) is not int:
            raise ValueError(f"field {field!r} must be an integer, got {value!r}")
    if not isinstance(name, str):
        raise ValueError(f"field 'obj' must be a string, got {name!r}")
    if ts < 0:
        raise ValueError(f"timestamp must be >= 0, got {ts}")
    if not name:
        raise ValueError("object id must be non-empty")
    # A tuple, not a dict: a list or object kind is unhashable.
    if kind not in TRACE_KINDS:
        raise ValueError(f"unknown request kind {kind!r}")
    if off < 0:
        raise ValueError(f"offset must be >= 0, got {off}")
    if kind in RANGED_KINDS:
        if length <= 0:
            raise ValueError(f"length must be > 0 for kind {kind!r}, got {length}")
    elif length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if ts > MAX_TRACE_INT:
        raise ValueError(f"timestamp must be <= 2**63 - 1, got {ts}")
    if off + length > MAX_TRACE_INT:
        raise ValueError(f"offset + length must be <= 2**63 - 1, got {off} + {length}")
    return ts, name, off, length, kind


def _checked_rows(lines):
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            row = _checked_row(json.loads(stripped))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        yield row


def parse_trace(lines) -> Trace:
    """Parse JSONL records from an iterable of lines.

    Blank lines are skipped. Records are sorted by timestamp, ties
    keeping their input order. Raises ValueError with the offending
    line number on malformed input and on an empty trace.
    """
    trace = Trace(_checked_rows(lines))
    if not len(trace):
        raise ValueError("empty trace")
    return trace


def read_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def trace_lines(trace: Trace):
    """Yield the canonical JSONL line for each record (fixed key order)."""
    names = [json.dumps(name) for name in trace.objects]
    columns = (trace.ts_ms, trace.obj, trace.off, trace.length, trace.kind)
    for t, o, a, n, k in zip(*(c.tolist() for c in columns)):
        yield f'{{"ts_ms":{t},"obj":{names[o]},"off":{a},"len":{n},"kind":"{TRACE_KINDS[k]}"}}'


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in trace_lines(trace))


@dataclass(frozen=True, eq=False)  # arrays compare elementwise, not to one bool
class SizeCdf:
    """Empirical CDF over request sizes; build it with ``from_sizes``.

    ``fractions[i]`` (float64, ending at 1.0) of the samples are at or
    under ``sizes[i]`` (int64, strictly increasing).
    """

    sizes: np.ndarray
    fractions: np.ndarray

    @classmethod
    def from_sizes(cls, sizes) -> "SizeCdf":
        values, counts = np.unique(np.asarray(sizes, dtype=np.int64), return_counts=True)
        if not len(values):
            raise ValueError("no sizes to build a CDF from")
        running = np.cumsum(counts)
        return cls(values, running / running[-1])

    def fraction_at(self, size: int) -> float:
        """Fraction of requests with size <= the given size."""
        idx = np.searchsorted(self.sizes, size, side="right")
        return float(self.fractions[idx - 1]) if idx else 0.0

    def quantile(self, p: float) -> int:
        """Smallest sampled size whose cumulative fraction reaches p."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile fraction must be in (0, 1], got {p}")
        return int(self.sizes[np.searchsorted(self.fractions, p, side="left")])


def size_cdf(trace: Trace) -> SizeCdf:
    """Empirical CDF of get-request lengths."""
    sizes = trace.length[trace.kind == GET]
    if not len(sizes):
        raise ValueError("trace has no get records")
    return SizeCdf.from_sizes(sizes)


@dataclass(frozen=True)
class ReuseStats:
    """Re-access intervals over (object, block) pairs, with summary stats.

    ``median_ms`` and ``under_threshold_fraction`` are None when the
    trace has no re-accesses at all, absent rather than zero.
    """

    intervals_ms: tuple[int, ...]
    threshold_ms: int
    median_ms: float | None
    under_threshold_fraction: float | None


def _get_pairs(trace: Trace, granularity: int):
    """``group_pairs`` over the gets' (object, offset // granularity) pairs."""
    if granularity <= 0:
        raise ValueError(f"granularity must be > 0, got {granularity}")
    get = trace.kind == GET
    # A get ends inside int64, so a larger granularity puts it in block 0.
    return group_pairs(trace.obj[get], trace.off[get] // min(granularity, MAX_TRACE_INT))


def reuse_intervals(
    trace: Trace,
    granularity: int = DEFAULT_BLOCK_BYTES,
    threshold_ms: int = DEFAULT_REUSE_THRESHOLD_MS,
) -> ReuseStats:
    """Intervals between consecutive get accesses to the same block.

    A record's block is (object id, offset // granularity). Intervals
    are listed in the trace order of their second access.
    """
    order, new = _get_pairs(trace, granularity)
    if threshold_ms <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold_ms}")
    ts = trace.ts_ms[trace.kind == GET]
    again = ~new[1:]
    later = order[1:][again]
    intervals = (ts[later] - ts[order[:-1][again]])[np.argsort(later)]
    n = len(intervals)
    if not n:
        return ReuseStats((), threshold_ms, None, None)
    mid = np.partition(intervals, [(n - 1) // 2, n // 2])
    # The middle two are added as exact ints, as statistics.median does.
    median = (int(mid[(n - 1) // 2]) + int(mid[n // 2])) / 2
    under = int(np.count_nonzero(intervals < threshold_ms)) / n
    return ReuseStats(tuple(intervals.tolist()), threshold_ms, median, under)


def popularity_share(trace: Trace, granularity: int = DEFAULT_BLOCK_BYTES, k: int = 10_000) -> float:
    """Fraction of get requests landing on the k most-accessed blocks."""
    _, new = _get_pairs(trace, granularity)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    total = len(new)
    if total == 0:
        return 0.0
    counts = np.diff(np.flatnonzero(new), append=total)
    return int(np.sort(counts)[-k:].sum()) / total


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for seeded trace synthesis.

    Sizes follow a piecewise log-uniform distribution whose segment
    masses hit the quantile anchors, object popularity is Zipf-like
    over a fixed universe, and timestamps are uniform over the
    duration.
    """

    records: int = 100_000
    size_anchors: tuple[tuple[int, float], ...] = DEFAULT_SIZE_ANCHORS
    min_bytes: int = 100
    object_universe: int = DEFAULT_OBJECT_UNIVERSE
    zipf_exponent: float = DEFAULT_ZIPF_EXPONENT
    duration_ms: int = DEFAULT_DURATION_MS

    def __post_init__(self) -> None:
        if not 1 <= self.records <= MAX_SYNTH_RECORDS:
            raise ValueError(f"record count must be in [1, 10**8], got {self.records}")
        if not self.size_anchors:
            raise ValueError("size anchors must be non-empty")
        sizes = [s for s, _ in self.size_anchors]
        fracs = [f for _, f in self.size_anchors]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"anchor sizes must be strictly increasing, got {sizes}")
        if sizes[-1] > MAX_TRACE_INT:
            raise ValueError(f"anchor sizes must be <= 2**63 - 1, got {sizes[-1]}")
        if any(b <= a for a, b in zip(fracs, fracs[1:])):
            raise ValueError(f"anchor fractions must be strictly increasing, got {fracs}")
        if not all(math.isfinite(f) for f in fracs):
            raise ValueError(f"anchor fractions must be finite, got {fracs}")
        if fracs[0] <= 0.0 or fracs[-1] != 1.0:
            raise ValueError(f"anchor fractions must lie in (0, 1] and end at 1.0, got {fracs}")
        if not 1 <= self.min_bytes <= sizes[0]:
            raise ValueError(
                f"min_bytes must be in [1, first anchor size {sizes[0]}], got {self.min_bytes}"
            )
        if not 1 <= self.object_universe <= MAX_OBJECT_UNIVERSE:
            raise ValueError(f"object universe must be in [1, 10**7], got {self.object_universe}")
        if not (math.isfinite(self.zipf_exponent) and self.zipf_exponent > 0):
            raise ValueError(f"zipf exponent must be finite and > 0, got {self.zipf_exponent}")
        if self.duration_ms < 1:
            raise ValueError(f"duration must be >= 1 ms, got {self.duration_ms}")


def _draw_sizes(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    n = spec.records
    highs = np.array([size for size, _ in spec.size_anchors], dtype=np.int64)
    lows = np.concatenate(([spec.min_bytes], highs[:-1] + 1))
    seg_cum = np.cumsum(np.diff([0.0] + [frac for _, frac in spec.size_anchors]))
    seg_cum[-1] = 1.0  # guard against float cumsum drift
    seg = np.searchsorted(seg_cum, rng.random(n), side="right")
    ln_lo = np.log(lows.astype(np.float64))
    ln_hi = np.log(highs.astype(np.float64))
    raw = np.exp(ln_lo[seg] + rng.random(n) * (ln_hi[seg] - ln_lo[seg]))
    # exp can round a draw at a top anchor near 2**63 up to 2**63, past int64.
    sizes = np.minimum(np.rint(raw), np.nextafter(2.0**63, 0)).astype(np.int64)
    return np.clip(sizes, lows[seg], highs[seg])


def _draw_objects(spec: SynthSpec, rng: np.random.Generator):
    """Object picks as ``(object ids, int32 codes)``, codes in popularity-rank order."""
    # One universe array, in place: rank, then Zipf weight, then cumulative share.
    share = np.arange(1, spec.object_universe + 1, dtype=np.float64)
    np.power(share, -spec.zipf_exponent, out=share)
    np.cumsum(share, out=share)
    share /= share[-1]
    drawn = np.searchsorted(share, rng.random(spec.records), side="right")
    ranks, codes = np.unique(drawn, return_inverse=True)
    width = len(str(spec.object_universe))
    return tuple(f"o{r + 1:0{width}d}" for r in ranks.tolist()), codes.astype(np.int32)


def synthesize_trace(spec: SynthSpec, seed: int) -> Trace:
    """Generate a deterministic read-only trace for (spec, seed).

    The generator draws, in a fixed order that is part of the format:
    size segment picks, size positions, object picks, timestamps.
    Every record is a get at offset 0.
    """
    n = spec.records
    rng = np.random.default_rng(seed)
    sizes = _draw_sizes(spec, rng)
    objects, codes = _draw_objects(spec, rng)
    timestamps = np.sort(rng.integers(0, spec.duration_ms, size=n))
    offsets, kinds = np.zeros(n, np.int64), np.full(n, GET, np.uint8)
    return Trace._from_columns(objects, timestamps, codes, offsets, sizes, kinds)
