"""Storage access traces: ingestion, workload statistics, synthesis.

Traces are JSON-lines, one request per line:

    {"ts_ms": 12, "obj": "o0000042", "off": 0, "len": 8192, "kind": "get"}

Timestamps are milliseconds from the trace epoch. ``off`` and ``len``
default to 0 for non-ranged kinds. Lines are checked as they are read
into a ``Trace``, which holds typed columns; ``read_trace`` parses a file
whose every line has the exact shape ``trace_lines`` writes in bulk, and
any other file line by line. Statistics follow the read-focused modeling
scope of this package, so they are computed over get records.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import count, filterfalse
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

import numpy as np

from .units import KB, MAX_TRACE_INT, MB, regular_file

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
        ts, obj, off, length, kind = columns = _row_buffers()
        for t, o, a, n, k in rows:
            ts.append(t)
            obj.append(codes.setdefault(o, len(codes)))  # coded by first appearance
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


def _row_buffers() -> list[array]:
    """Empty ``array`` buffers for the five columns, in ``Trace`` order and dtypes."""
    return [array(t) for t in ("q", "i", "q", "q", "B")]


def group_pairs(obj, block):
    """Positions grouped by (object, block) pair: ``(order, new)``.

    ``order`` lists the positions by object, then block, then position,
    so ascending within a pair; ``new[i]`` is True where ``order[i]`` is
    its pair's first position. When the object and block, each less its
    minimum, and the position pack into one int64 key of at most 63 bits,
    this is one sort of those keys; otherwise a stable lexsort.
    """
    n = len(obj)
    if n:
        obj_min, block_min = int(obj.min()), int(block.min())
        pos_bits = (n - 1).bit_length()
        block_bits = (int(block.max()) - block_min).bit_length()
        if (int(obj.max()) - obj_min).bit_length() + block_bits + pos_bits <= 63:
            key = np.subtract(obj, obj_min, dtype=np.int64)
            key <<= block_bits
            key |= np.subtract(block, block_min, dtype=np.int64)
            key <<= pos_bits
            key |= np.arange(n, dtype=np.int64)
            key.sort()
            order = key & ((1 << pos_bits) - 1)
            key >>= pos_bits  # the pair part alone
            new = np.ones(n, dtype=bool)
            np.not_equal(key[1:], key[:-1], out=new[1:])
            return order, new
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
        except RecursionError:
            raise ValueError(f"line {lineno}: invalid JSON (nesting too deep)") from None
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


# Bytes ``read_trace`` reads at a time, before it completes the last line.
# A warm read of a 10**5-line trace of ranged gets (7.4 MB) took a median
# of 77-113 ms at 256 KiB against 82-125 ms at 128 KiB, over runs of 15
# alternating calls on a shared 2-vCPU x86-64 box. 512 KiB saved up to 6%
# more in two of three runs but raised the `iocost scenario run` process's
# own peak RSS by ~2 MiB, where 256 KiB peaks as 128 KiB does.
_CHUNK_BYTES = 1 << 18


def _word(text: bytes) -> int:
    """``text``, at most 8 bytes, as the little-endian word whose low bytes it fills."""
    return int.from_bytes(text, "little")


def _mask(text: bytes) -> int:
    """The mask of the bytes of ``_word(text)``."""
    return _word(b"\xff" * len(text))


# A line in the exact shape ``trace_lines`` writes has 14 quotes, q0 to q13:
#
#   {"ts_ms":12,"obj":"o42","off":0,"len":8192,"kind":"get"}\n
#    ^     ^    ^   ^ ^   ^ ^   ^   ^   ^      ^    ^ ^   ^
#
# Its key text, as (quote, offset from it, bytes): each is read as one
# word, masked to its bytes, and fixes the quotes it spans relative to
# the first. What is left is the id from q4 to q5, the kind from q12 to
# q13 and the integers, each from two past q1, q7 or q9 to the comma
# before q2, q8 or q10.
_KEY_QUOTES, _KEY_OFFSETS, _KEY_TEXT = zip((0, -1, b'{"ts_ms"'), (1, 1, b":"), (2, -1, b',"obj":"'),
                                           (5, 0, b'","off":'), (8, -1, b',"len":'), (10, -1, b',"kind":'),
                                           (11, 2, b'"'))
_KEY_WORDS, _KEY_MASKS = (np.array([f(t) for t in _KEY_TEXT], np.uint64) for f in (_word, _mask))
# Zero bytes around a chunk's copy, so that every word read near a row's quotes lies inside it.
_PAD = 24

# Kind codes by a kind's first two bytes, which tell the kinds apart. The
# word at a kind's first byte then holds the kind and the line's end.
_KIND_BY_PREFIX = np.zeros(1 << 16, np.uint8)
_KIND_BY_PREFIX[[_word(k[:2].encode()) for k in TRACE_KINDS]] = range(len(TRACE_KINDS))
_KIND_ENDS, _KIND_END_MASKS = (np.array([f(k.encode() + b'"}\n') for k in TRACE_KINDS], np.uint64)
                               for f in (_word, _mask))
_RANGED_CODES = np.array([kind in RANGED_KINDS for kind in TRACE_KINDS])
# 10**18 down to 1: a number of at most 19 digits is below 2**64.
_POWERS_OF_TEN = 10 ** np.arange(18, -1, -1, dtype=np.uint64)
# The least number of n digits without a leading zero, at index n from 1 to 19.
_LEAST = np.concatenate((np.zeros(2, np.uint64), _POWERS_OF_TEN[-2::-1]))
# An integer is read as the three words that end 0, 8 and 16 bytes before its end.
_BACK = np.array([8, 16, 24]).reshape(3, 1, 1)
# The mask of a word's bytes that hold digits of a run with k digits from
# the word's first byte to the run's end, at index k + 16 for k from -16 to 19.
_TOP_BYTES = np.array([_word(bytes(8 - n) + b"\xff" * n) for n in (min(max(k, 0), 8) for k in range(-16, 20))],
                      np.uint64)
_ZEROS, _PAST_NINE, _HIGH_BITS = (np.uint64(_word(bytes([b] * 8))) for b in (ord("0"), 0x76, 0x80))


def _chunks(fh):
    """The bytes of a binary file in pieces of whole lines, each ending in a newline."""
    while chunk := fh.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()
        # A last line without a newline parses the same with one.
        yield chunk if chunk.endswith(b"\n") else chunk + b"\n"


def _words(chunk: bytes) -> np.ndarray:
    """The little-endian word at each byte of ``chunk``, with ``_PAD`` zero bytes on each side.

    Index ``_PAD + i`` holds the 8 bytes from ``chunk[i]``: the words
    overlap, a view of one padded copy with a stride of one byte.
    """
    padded = np.zeros(len(chunk) + 2 * _PAD, np.uint8)
    padded[_PAD:-_PAD] = np.frombuffer(chunk, np.uint8)
    return np.ndarray((len(padded) - 7,), "<u8", padded, strides=(1,))


def _integers(words: np.ndarray, start: np.ndarray, end: np.ndarray):
    """The decimals from ``start`` to ``end`` in ``words``' bytes as uint64, or None.

    None unless each has 1 to 19 digits and no leading zero. Each is
    parsed 8 digits a word: the words ending 0, 8 and 16 bytes before
    ``end``, their bytes before ``start`` cleared, are checked to hold
    only digits, and each word's digits combine pairwise in three
    multiplies (Langdale and Lemire, "Parsing Gigabytes of JSON per
    Second", 2019).
    """
    digits = end - start
    longest = int(digits.max())
    if longest > 19 or digits.min() < 1:
        return None
    # No more words than the longest run fills.
    back = _BACK[:(longest + 7) // 8]
    x = words[end - back]
    x ^= _ZEROS
    x &= _TOP_BYTES[digits - back + 24]
    # A byte above 9 carries into its top bit when 0x76 is added.
    if (((x + _PAST_NINE) | x) & _HIGH_BITS).any():
        return None
    # A word's earlier digits are its lower bytes: they make 2-digit, then 4-digit, then 8-digit lanes.
    x *= np.uint64(10 << 8 | 1)
    x >>= np.uint64(8)
    x &= np.uint64(0x00FF00FF00FF00FF)
    x *= np.uint64(100 << 16 | 1)
    x >>= np.uint64(16)
    x &= np.uint64(0x0000FFFF0000FFFF)
    x *= np.uint64(10**4 << 32 | 1)
    x >>= np.uint64(32)
    values = x[0]
    for k in range(1, len(back)):
        values += x[k] * np.uint64(10 ** (8 * k))
    return values if (values >= _LEAST[digits]).all() else None


def _canonical_columns(chunk: bytes, codes: dict[str, int]):
    """The typed columns of a chunk of ``trace_lines``-shaped lines, or None.

    None if any line has another shape or fails a row check, so the
    file needs the line path; ``codes`` then stays untouched.
    """
    buf = np.frombuffer(chunk, np.uint8)
    quotes = np.flatnonzero(buf == ord('"'))
    lines = len(quotes) // 14
    # ASCII (DEL included) without a backslash, with 14 quotes a line and
    # one control byte a line, which the kind's word puts at its end.
    if buf.max() > 0x7F or b"\\" in chunk or len(quotes) != 14 * lines or np.count_nonzero(buf < 0x20) != lines:
        return None
    # A row of quotes a line, as indices of ``words``.
    quotes = quotes.reshape(lines, 14) + _PAD
    first, last = quotes[:, 0], quotes[:, 13]
    # Each line starts one byte before its first quote and ends two past its last, the first at the chunk's
    # start and each next one where the one before ended; the newline that ends the chunk ends the last.
    if first[0] != _PAD + 1 or (first[1:] != last[:-1] + 4).any():
        return None
    words = _words(chunk)
    if ((words[quotes[:, _KEY_QUOTES] + _KEY_OFFSETS] & _KEY_MASKS) != _KEY_WORDS).any():
        return None
    kind_words = words[quotes[:, 12] + 1]
    kind = _KIND_BY_PREFIX[kind_words & np.uint64(0xFFFF)]
    # Ids are not empty; kinds are known and end their line.
    if ((quotes[:, 5] - quotes[:, 4] < 2) | (kind_words & _KIND_END_MASKS[kind] != _KIND_ENDS[kind])).any():
        return None
    values = _integers(words, quotes[:, [1, 7, 9]] + 2, quotes[:, [2, 8, 10]] - 1)
    if values is None:
        return None
    ts, off, length = values.T
    limit = np.uint64(MAX_TRACE_INT)
    # Each value first: two below 10**19 can wrap past 2**64 when added.
    if not ((values <= limit).all() and (off + length <= limit).all()
            and ((length > 0) | ~_RANGED_CODES[kind]).all()):
        return None
    text = chunk.decode("ascii")
    ids = zip((quotes[:, 4] + 1 - _PAD).tolist(), (quotes[:, 5] - _PAD).tolist())
    names = [text[start:end] for start, end in ids]
    # Ids not seen before take the next codes, in order of first appearance.
    fresh = list(filterfalse(codes.__contains__, dict.fromkeys(names)))
    codes.update(zip(fresh, count(len(codes))))
    obj = np.fromiter(map(codes.__getitem__, names), np.int32, len(names))
    return ts.astype(np.int64), obj, off.astype(np.int64), length.astype(np.int64), kind


def _read_canonical(path: str) -> Trace | None:
    """The trace of a non-empty file of ``trace_lines``-shaped lines, or None at the first other chunk."""
    codes: dict[str, int] = {}
    columns = _row_buffers()
    with open(path, "rb") as fh:
        for chunk in _chunks(fh):
            parsed = _canonical_columns(chunk, codes)
            if parsed is None:
                return None
            for buffer, column in zip(columns, parsed):
                buffer.frombytes(memoryview(column).cast("B"))
    return Trace._from_columns(tuple(codes), *columns) if codes else None


def read_trace(path: str) -> Trace:
    """Read a trace file: ``parse_trace`` over its lines, read as UTF-8 text.

    A file whose every line is in the exact ``trace_lines`` shape is
    parsed in bulk with numpy, to the same trace. Any other file, a
    faulty, empty or mixed one included, goes through ``parse_trace``
    whole, so its error text and line number are the line path's. A
    path that is not a regular file is refused (``units.regular_file``).
    """
    trace = _read_canonical(regular_file(path, "trace file"))
    if trace is not None:
        return trace
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh)


# Rows encoded at a time while their ids are at most 64 bytes quoted; a
# wider id shrinks its chunk so the id cells stay within 2**20 bytes.
# 2**16-row chunks raised the synth_sweep child's peak RSS from 50.2 to 52.6 MB.
_WRITE_ROWS = 1 << 14

# The text around the five fields of a canonical line, in order.
_LINE_TEXT = [np.frombuffer(t, np.uint8) for t in b'{"ts_ms":|,"obj":|,"off":|,"len":|,"kind":"|"}\n'.split(b"|")]
# Row k holds kind k's bytes, NUL-padded.
_KIND_CELLS = np.array(TRACE_KINDS, "S").view(np.uint8).reshape(len(TRACE_KINDS), -1)


def _digits(values: np.ndarray) -> np.ndarray:
    """A row of ASCII digits for each of the non-negative ``values``, NUL before its first digit."""
    width = len(str(int(values.max())))
    digits = np.empty((len(values), width), np.uint8)
    rest = values
    for place in range(width - 1, -1, -1):
        # numpy divides by a scalar several times faster than by an array of powers.
        tens = rest // 10
        digits[:, place] = rest - tens * 10
        rest = tens
    digits += ord("0")
    # NUL above the first digit; 0 keeps one. int64 powers compare exactly on numpy 1 too.
    digits *= np.maximum(values, 1)[:, None] >= _POWERS_OF_TEN[-width:].astype(np.int64)
    return digits


def _encoded(trace: Trace):
    """The canonical lines of ``trace`` as ASCII bytes, one chunk of rows at a time.

    Each chunk is a grid of one row a record: the line's text, its
    integers' digits, its quoted id and its kind, the id cast to
    fixed-width bytes as the kind is, with NUL in the places a shorter
    value leaves. Dropping the NULs leaves the lines, as ``json.dumps``
    escapes NUL and so no line holds one.
    """
    # Each id as json.dumps writes it, encoded once: casting str ids in every chunk is slower.
    quoted = np.array([encode_basestring_ascii(o).encode("ascii") for o in trace.objects], object)
    widths = np.fromiter(map(len, quoted), np.intp, len(quoted))
    start = 0
    while start < len(trace):
        obj = trace.obj[start:start + _WRITE_ROWS]
        width = int(widths[obj].max())
        obj = obj[:max(1, _WRITE_ROWS * 64 // max(width, 64))]
        rows, start = slice(start, start + len(obj)), start + len(obj)
        cells = quoted[obj].astype(f"S{width}").view(np.uint8).reshape(len(obj), width)
        text = [np.broadcast_to(t, (len(obj), len(t))) for t in _LINE_TEXT]
        grid = np.concatenate([
            text[0], _digits(trace.ts_ms[rows]), text[1], cells, text[2], _digits(trace.off[rows]),
            text[3], _digits(trace.length[rows]), text[4], _KIND_CELLS[trace.kind[rows]], text[5],
        ], axis=1)
        yield grid[grid != 0].tobytes()


def trace_lines(trace: Trace):
    """Yield the canonical JSONL line for each record (fixed key order)."""
    for chunk in _encoded(trace):
        # The lines are ASCII with every control character escaped but the newlines.
        yield from chunk.decode("ascii").splitlines()


def write_trace(trace: Trace, path: str) -> None:
    """Write ``trace`` as its canonical lines, each ending in a newline."""
    with open(path, "wb") as fh:
        fh.writelines(_encoded(trace))


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
    if threshold_ms <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold_ms}")
    order, new = _get_pairs(trace, granularity)
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
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _, new = _get_pairs(trace, granularity)
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
        # Timestamps are drawn in [0, duration), so each fits int64.
        if not 1 <= self.duration_ms <= 2**63:
            raise ValueError(f"duration must be in [1, 2**63] ms, got {self.duration_ms}")


# A scenario's ``workload.synthesize`` object, checked by
# units.check_fields: (key, kind, default, minimum). Each default is
# SynthSpec's; "anchors" defaults to its ``size_anchors``.
SYNTHESIZE_FIELDS = (
    ("records", "int", SynthSpec.records, 1),
    ("anchors", "any", None, None),
    ("min_bytes", "bytes", SynthSpec.min_bytes, None),
    ("objects", "int", SynthSpec.object_universe, 1),
    ("zipf_exponent", "number", SynthSpec.zipf_exponent, None),
    ("duration_ms", "int", SynthSpec.duration_ms, 1),
)


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
