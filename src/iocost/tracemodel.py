"""Storage access traces: ingestion, workload statistics, synthesis.

Traces are JSON-lines, one request per line:

    {"ts_ms": 12, "obj": "o0000042", "off": 0, "len": 8192, "kind": "get"}

Timestamps are milliseconds from the trace epoch. ``off`` and ``len``
default to 0 for non-ranged kinds. Statistics follow the read-focused
modeling scope of this package, so they are computed over get records.
"""

from __future__ import annotations

import json
import math
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from heapq import nlargest

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

# Synthesis holds three float64 arrays of the universe's length, so the
# cap bounds that memory at about 240 MB.
MAX_OBJECT_UNIVERSE = 10**7


@dataclass(frozen=True, slots=True)
class AccessRecord:
    """One storage request."""

    ts_ms: int
    obj: str
    off: int
    length: int
    kind: str

    def __post_init__(self) -> None:
        if self.ts_ms < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.ts_ms}")
        if not self.obj:
            raise ValueError("object id must be non-empty")
        if self.kind not in TRACE_KINDS:
            raise ValueError(f"unknown request kind {self.kind!r}")
        if self.off < 0:
            raise ValueError(f"offset must be >= 0, got {self.off}")
        if self.kind in RANGED_KINDS:
            if self.length <= 0:
                raise ValueError(f"length must be > 0 for kind {self.kind!r}, got {self.length}")
        elif self.length < 0:
            raise ValueError(f"length must be >= 0, got {self.length}")
        if self.ts_ms > MAX_TRACE_INT:
            raise ValueError(f"timestamp must be <= 2**63 - 1, got {self.ts_ms}")
        if self.off + self.length > MAX_TRACE_INT:
            raise ValueError(
                f"offset + length must be <= 2**63 - 1, got {self.off} + {self.length}"
            )


@dataclass(frozen=True)
class Trace:
    """A timestamp-sorted sequence of access records."""

    records: tuple[AccessRecord, ...]
    provenance: str = "ingested"
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.records)

    def gets(self) -> list[AccessRecord]:
        return [r for r in self.records if r.kind == "get"]


# The keys of a trace line, as ``trace_lines`` writes them.
_RECORD_KEYS = frozenset(("ts_ms", "obj", "off", "len", "kind"))


def _record_from_json(obj: dict) -> AccessRecord:
    if not _RECORD_KEYS.issuperset(obj):
        key = next(k for k in obj if k not in _RECORD_KEYS)
        raise ValueError(f"unknown field {key!r} (known: {', '.join(sorted(_RECORD_KEYS))})")
    for name in ("ts_ms", "obj", "kind"):
        if name not in obj:
            raise ValueError(f"missing field {name!r}")
    for name in ("ts_ms", "off", "len"):
        if name in obj and (not isinstance(obj[name], int) or isinstance(obj[name], bool)):
            raise ValueError(f"field {name!r} must be an integer, got {obj[name]!r}")
    if not isinstance(obj["obj"], str):
        raise ValueError(f"field 'obj' must be a string, got {obj['obj']!r}")
    return AccessRecord(
        ts_ms=obj["ts_ms"],
        obj=obj["obj"],
        off=obj.get("off", 0),
        length=obj.get("len", 0),
        kind=obj["kind"],
    )


def parse_trace(lines) -> Trace:
    """Parse JSONL records from an iterable of lines.

    Blank lines are skipped. Records are sorted by timestamp if the
    input is unsorted. Raises ValueError with the offending line number
    on malformed input and on an empty trace.
    """
    records = []
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"line {lineno}: record must be a JSON object")
        try:
            records.append(_record_from_json(obj))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if not records:
        raise ValueError("empty trace")
    records.sort(key=lambda r: r.ts_ms)
    return Trace(tuple(records), provenance="ingested")


def read_trace(path: str) -> Trace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


def trace_lines(trace: Trace):
    """Yield the canonical JSONL line for each record (fixed key order)."""
    for r in trace.records:
        yield json.dumps(
            {"ts_ms": r.ts_ms, "obj": r.obj, "off": r.off, "len": r.length, "kind": r.kind},
            separators=(",", ":"),
        )


def write_trace(trace: Trace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in trace_lines(trace):
            fh.write(line)
            fh.write("\n")


@dataclass(frozen=True)
class SizeCdf:
    """Empirical CDF over request sizes, as (size, cumulative fraction) steps."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("CDF needs at least one point")
        sizes = [s for s, _ in self.points]
        fracs = [f for _, f in self.points]
        if sizes != sorted(set(sizes)):
            raise ValueError("CDF sizes must be strictly increasing")
        if any(b < a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("CDF fractions must be non-decreasing")
        if fracs[-1] != 1.0:
            raise ValueError(f"final CDF fraction must be 1.0, got {fracs[-1]}")

    @classmethod
    def from_sizes(cls, sizes) -> "SizeCdf":
        counts = Counter(sizes)
        if not counts:
            raise ValueError("no sizes to build a CDF from")
        total = sum(counts.values())
        points = []
        running = 0
        for size in sorted(counts):
            running += counts[size]
            points.append((size, running / total))
        return cls(tuple(points))

    def fraction_at(self, size: int) -> float:
        """Fraction of requests with size <= the given size."""
        sizes = [s for s, _ in self.points]
        idx = bisect_right(sizes, size)
        if idx == 0:
            return 0.0
        return self.points[idx - 1][1]

    def quantile(self, p: float) -> int:
        """Smallest sampled size whose cumulative fraction reaches p."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"quantile fraction must be in (0, 1], got {p}")
        fracs = [f for _, f in self.points]
        idx = bisect_left(fracs, p)
        return self.points[idx][0]


def size_cdf(trace: Trace) -> SizeCdf:
    """Empirical CDF of get-request lengths."""
    sizes = [r.length for r in trace.records if r.kind == "get"]
    if not sizes:
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


def reuse_intervals(
    trace: Trace,
    granularity: int = DEFAULT_BLOCK_BYTES,
    threshold_ms: int = DEFAULT_REUSE_THRESHOLD_MS,
) -> ReuseStats:
    """Intervals between consecutive get accesses to the same block.

    A record's block is (object id, offset // granularity). Intervals
    are collected in trace order.
    """
    if granularity <= 0:
        raise ValueError(f"granularity must be > 0, got {granularity}")
    if threshold_ms <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold_ms}")
    last_seen: dict[tuple[str, int], int] = {}
    intervals: list[int] = []
    for r in trace.records:
        if r.kind != "get":
            continue
        key = (r.obj, r.off // granularity)
        prev = last_seen.get(key)
        if prev is not None:
            intervals.append(r.ts_ms - prev)
        last_seen[key] = r.ts_ms
    if not intervals:
        return ReuseStats((), threshold_ms, None, None)
    under = sum(1 for i in intervals if i < threshold_ms)
    return ReuseStats(
        tuple(intervals),
        threshold_ms,
        float(statistics.median(intervals)),
        under / len(intervals),
    )


def popularity_share(trace: Trace, granularity: int = DEFAULT_BLOCK_BYTES, k: int = 10_000) -> float:
    """Fraction of get requests landing on the k most-accessed blocks."""
    if granularity <= 0:
        raise ValueError(f"granularity must be > 0, got {granularity}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = Counter((r.obj, r.off // granularity) for r in trace.records if r.kind == "get")
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return sum(nlargest(k, counts.values())) / total


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
        if self.records < 1:
            raise ValueError(f"record count must be >= 1, got {self.records}")
        if not self.size_anchors:
            raise ValueError("size anchors must be non-empty")
        sizes = [s for s, _ in self.size_anchors]
        fracs = [f for _, f in self.size_anchors]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError(f"anchor sizes must be strictly increasing, got {sizes}")
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


def _draw_sizes(spec: SynthSpec, rng: np.random.Generator) -> list[int]:
    n = spec.records
    lows, highs, masses = [], [], []
    prev_size, prev_frac = spec.min_bytes - 1, 0.0
    for size, frac in spec.size_anchors:
        lows.append(prev_size + 1)
        highs.append(size)
        masses.append(frac - prev_frac)
        prev_size, prev_frac = size, frac
    seg_cum = np.cumsum(masses)
    seg_cum[-1] = 1.0  # guard against float cumsum drift
    seg = np.searchsorted(seg_cum, rng.random(n), side="right")
    ln_lo = np.log(np.array(lows, dtype=np.float64))
    ln_hi = np.log(np.array(highs, dtype=np.float64))
    raw = np.exp(ln_lo[seg] + rng.random(n) * (ln_hi[seg] - ln_lo[seg]))
    sizes = np.rint(raw).astype(np.int64)
    sizes = np.clip(sizes, np.array(lows)[seg], np.array(highs)[seg])
    return sizes.tolist()


def _draw_objects(spec: SynthSpec, rng: np.random.Generator) -> list[str]:
    ranks = np.arange(1, spec.object_universe + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_exponent
    cum = np.cumsum(weights)
    cum /= cum[-1]
    drawn = np.searchsorted(cum, rng.random(spec.records), side="right")
    width = len(str(spec.object_universe))
    names = {int(r): f"o{int(r) + 1:0{width}d}" for r in np.unique(drawn)}
    return [names[int(r)] for r in drawn]


def synthesize_trace(spec: SynthSpec, seed: int) -> Trace:
    """Generate a deterministic read-only trace for (spec, seed).

    The generator draws, in a fixed order that is part of the format:
    size segment picks, size positions, object picks, timestamps.
    Every record is a get at offset 0.
    """
    rng = np.random.default_rng(seed)
    sizes = _draw_sizes(spec, rng)
    objects = _draw_objects(spec, rng)
    timestamps = np.sort(rng.integers(0, spec.duration_ms, size=spec.records)).tolist()
    records = tuple(
        AccessRecord(ts_ms=ts, obj=obj, off=0, length=size, kind="get")
        for ts, obj, size in zip(timestamps, objects, sizes)
    )
    return Trace(records, provenance="synthesized", seed=seed)
