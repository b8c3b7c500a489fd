"""The request table: a ``Trace`` holds a workload's requests or a scan plan's reads, ``Trace.tally``
counts them for a price book, ``group_pairs`` groups them by (object, block); it loads no other iocost module."""

from __future__ import annotations

from array import array
from collections import defaultdict
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from .pricing import RequestTally

TRACE_KINDS = ("get", "put", "post", "copy", "list", "head")


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
        codes = _id_codes()
        ts, obj, off, length, kind = columns = _row_buffers()
        for t, o, a, n, k in rows:
            ts.append(t)
            obj.append(codes[o])
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

    @classmethod
    def _gets_on(cls, name: str, off, length) -> "Trace":
        """Gets of ``length[i]`` bytes from ``off[i]`` on object ``name``, at ``ts_ms`` 0 in the order given."""
        n = len(off)
        return cls._from_columns((name,), np.zeros(n, np.int64), np.zeros(n, np.int32), off, length,
                                 np.full(n, GET, np.uint8))

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

    def tally(self) -> RequestTally:
        """The count and exact byte total (``exact_sum``) of each kind present, in ``TRACE_KINDS`` order."""
        from .pricing import RequestTally

        # bincount, not unique: a bare np.unique loads numpy.ma, ~15 ms cold.
        counts = np.bincount(self.kind, minlength=len(TRACE_KINDS))
        present = np.flatnonzero(counts).tolist()
        return RequestTally({TRACE_KINDS[code]: int(counts[code]) for code in present},
                            {TRACE_KINDS[code]: exact_sum(self.length[self.kind == code]) for code in present})


def exact_sum(values: np.ndarray) -> int:
    """The sum of non-negative int64 ``values`` as an int, in 32-bit halves: exact below 2**31 values."""
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


def pair_bits(obj_span: int, block_span: int, n: int) -> tuple[int, int] | None:
    """``(block_bits, pos_bits)`` of the packed key of ``group_pairs``, or None past 63 bits.

    The key of position ``t`` is ``obj << (block_bits + pos_bits) |
    block << pos_bits | t``, each of the object and the block less its
    minimum; ``obj_span`` and ``block_span`` are their largest values.
    """
    pos_bits = (n - 1).bit_length()
    block_bits = block_span.bit_length()
    if obj_span.bit_length() + block_bits + pos_bits <= 63:
        return block_bits, pos_bits
    return None


def group_keys(key, pos_bits: int):
    """``group_pairs``' ``(order, new)`` from its packed int64 keys; ``order`` is ``key``'s storage."""
    key.sort()
    pair = key >> pos_bits
    new = np.ones(len(key), dtype=bool)
    np.not_equal(pair[1:], pair[:-1], out=new[1:])
    key &= (1 << pos_bits) - 1
    return key, new


def group_pairs(obj, block):
    """Positions grouped by (object, block) pair: ``(order, new)``.

    ``order`` lists the positions by object, then block, then position,
    so ascending within a pair; ``new[i]`` is True where ``order[i]`` is
    its pair's first position. When the object and block, each less its
    minimum, and the position pack into one int64 key of at most 63 bits
    (``pair_bits``), this is one sort of those keys (``group_keys``);
    otherwise a stable lexsort.
    """
    n = len(obj)
    if n:
        obj_min, block_min = int(obj.min()), int(block.min())
        bits = pair_bits(int(obj.max()) - obj_min, int(block.max()) - block_min, n)
        if bits:
            block_bits, pos_bits = bits
            key = np.subtract(obj, obj_min, dtype=np.int64)
            key <<= block_bits
            key |= np.subtract(block, block_min, dtype=np.int64)
            key <<= pos_bits
            key |= np.arange(n, dtype=np.int64)
            return group_keys(key, pos_bits)
    order = np.lexsort((block, obj))
    new = np.ones(len(order), dtype=bool)
    # One sorted key at a time keeps the peak at one extra key array.
    key = obj[order]
    new[1:] = key[1:] != key[:-1]
    key = block[order]
    new[1:] |= key[1:] != key[:-1]
    return order, new


def _id_codes() -> defaultdict[str, int]:
    """An empty id → code map in which an id not seen before takes the next code, by first appearance."""
    codes = defaultdict()
    codes.default_factory = codes.__len__
    return codes


def _row_buffers() -> list[array]:
    """Empty ``array`` buffers for the five columns, in ``Trace`` order and dtypes."""
    return [array(t) for t in ("q", "i", "q", "q", "B")]
