"""Trace-driven simulation of a block-granular cache over object storage.

The cache holds fixed-size blocks keyed by (object, block index) under
LRU eviction. A get request touches every block its byte range covers;
missing blocks are fetched from origin one ranged request per
contiguous run of misses, which is where the cache saves API calls on
top of saving bytes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .trace import GET, Trace, exact_sum, group_keys, group_pairs, pair_bits
from .units import MAX_TRACE_INT, MB, REQUIRED

# Most block touches (blocks covered by the gets, counted per get) one
# simulation expands. The sweep peaks at about 33 bytes per touch, so
# the limit costs about 3.3 GB; being below 2**31, it also keeps every
# touch position exact in the int32 arrays of the sweep.
MAX_TRACE_TOUCHES = 10**8


@dataclass(frozen=True)
class CacheConfig:
    """Cache geometry; eviction is LRU and misses are fetched per run.

    Capacity is used in whole blocks; a capacity that is not a
    multiple of the block size is rounded down, see
    ``effective_capacity_bytes``. Zero capacity is legal and means
    every touch misses and nothing is retained.
    """

    capacity_bytes: int
    block_bytes: int = MB

    def __post_init__(self) -> None:
        if self.block_bytes <= 0:
            raise ValueError(f"block bytes must be > 0, got {self.block_bytes}")
        if self.capacity_bytes < 0:
            raise ValueError(f"capacity bytes must be >= 0, got {self.capacity_bytes}")

    @property
    def capacity_blocks(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def effective_capacity_bytes(self) -> int:
        return self.capacity_blocks * self.block_bytes


# A scenario's ``cache`` object, checked by units.check_fields: (key,
# kind, default, minimum); its keys are CacheConfig's fields.
CACHE_FIELDS = (
    ("capacity_bytes", "bytes", REQUIRED, None),
    ("block_bytes", "bytes", CacheConfig.block_bytes, 1),
)


@dataclass(frozen=True)
class CacheReport:
    """Counters from one simulation run.

    Hits and misses are per block touch. Origin requests are ranged
    fetches of contiguous missing-block runs, so origin bytes are
    always a whole number of blocks, which is what read amplification
    measures against the bytes the trace actually asked for. The
    footprint, ``distinct_blocks``, counts the blocks the gets touch.
    """

    requests_served: int
    hits: int
    misses: int
    origin_requests: int
    origin_bytes: int
    requested_bytes: int
    read_amplification: float
    hit_ratio: float
    distinct_blocks: int

    def to_dict(self) -> dict:
        return asdict(self)


def simulate(trace: Trace, config: CacheConfig) -> CacheReport:
    """Run the trace's get requests through an LRU block cache.

    Blocks touched by one request are walked in ascending order; each
    contiguous run of missing blocks costs one origin request and a
    full block of origin bytes per miss. Eviction happens after the
    request completes, so a request larger than the cache still counts
    its own blocks as single misses. This is ``sweep`` at one capacity.
    """
    return sweep(trace, config, [config.capacity_bytes])[0]


def _touches(trace: Trace, block_bytes: int):
    """The block touches of the trace's gets, in ``simulate``'s walk order.

    Records are walked in trace order and each get's blocks in ascending
    order. Returns ``(prev, starts, counts, requested)``: ``prev[t]`` is
    the position of the previous touch of t's (object, block) pair, or
    -1 at the pair's first touch, from one scatter over the touches
    grouped by pair: ``group_pairs``' packed key is built from per-get
    values with one ``np.repeat`` and grouped by ``group_keys``, and
    past 63 bits the expanded touches take ``group_pairs``' lexsort;
    ``starts`` and ``counts`` give each get's first touch position and
    block count; ``requested`` is the exact byte total of the gets.
    Positions are int32. More than ``MAX_TRACE_TOUCHES``
    touches raise ValueError before any touch is expanded.
    """
    if block_bytes <= 0:
        raise ValueError(f"block bytes must be > 0, got {block_bytes}")
    get = trace.kind == GET
    # Ingest keeps off + length within int64, so none of this overflows,
    # and a larger block puts every get in block 0.
    off, length = trace.off[get], trace.length[get]
    divisor = min(block_bytes, MAX_TRACE_INT)
    first, last = off // divisor, (off + length - 1) // divisor
    counts = last - first + 1
    # Clipped, the sum stays exact in int64 for any trace under 2**32 gets.
    if np.minimum(counts, MAX_TRACE_TOUCHES + 1).sum() > MAX_TRACE_TOUCHES:
        raise ValueError(
            f"the trace's gets touch more than {MAX_TRACE_TOUCHES:,} blocks of "
            f"{block_bytes} bytes; use a larger block size"
        )
    requested = exact_sum(length)  # exact: the limit keeps the gets below 2**31
    del off, length
    counts = counts.astype(np.int32)
    starts = np.cumsum(counts, dtype=np.int32) - counts
    total = int(counts.sum())
    obj = trace.obj[get]
    bits = total and pair_bits(int(obj.max() - obj.min()), int(last.max() - first.min()), total)
    del last
    if bits:
        # group_pairs' packed (object, block, position) key of touch t of
        # get g is c[g] + t * (2**pos_bits + 1).
        block_bits, pos_bits = bits
        c = np.subtract(obj, obj.min(), dtype=np.int64)
        c <<= block_bits
        c += first - first.min() - starts
        c *= 1 << pos_bits
        del first, obj
        key = np.arange(total, dtype=np.int64)
        key *= (1 << pos_bits) + 1
        key += np.repeat(c, counts)
        del c
        order, new = group_keys(key, pos_bits)
    else:  # over 63 bits: group_pairs' lexsort of the expanded touches
        block = np.repeat(first - starts, counts)
        block += np.arange(total, dtype=np.int64)
        order, new = group_pairs(np.repeat(obj, counts), block)
        del block
    prev = np.full(total, -1, dtype=np.int32)
    prev[order[1:]] = np.where(new[1:], -1, order[:-1])
    return prev, starts, counts, requested


def _stack_distances(prev, starts, counts, low: int, high: int) -> np.ndarray:
    """Each touch's LRU stack distance, exact where capacities ``low..high`` need it.

    The distance of a touch is the number of distinct blocks touched
    after its pair's previous touch and before the start of its own
    request (eviction waits for the request to end, so the blocks of
    the request itself never push it out). A pair's first touch gets
    the touch count ``total``, at least the footprint (the distinct
    blocks) that ``sweep`` clamps capacities to, so it misses at every
    capacity; every other distance is below the footprint.

    With ``p = prev[t]`` and ``r`` the start of t's request, the
    distance is at most the window length ``r - p - 1`` and the
    distinct blocks other than its own seen before ``r``, and at least
    the first touches inside the window. A touch whose upper bound is
    below ``low`` (the smallest nonzero capacity) hits at every
    capacity, and one whose lower bound reaches ``high`` (the largest
    capacity below the footprint) misses at every capacity below the
    footprint; each keeps that bound. The rest are counted. Every
    position up to ``p`` has ``prev[j] < j <= p``, and in the window
    ``(p, r)`` only the first touch of each distinct pair has its
    previous touch at or before ``p``, so the distance is
    ``seen[r] - (p + 1) + #{i < rho: q[i] <= p}``, where ``seen[r]``
    counts the first touches before ``r``, ``q`` lists the re-touches'
    ``prev`` in touch order and ``rho = r - seen[r]`` is the number of
    re-touches before ``r``: only re-touches are points.

    Re-touches come in runs, and one count serves a whole run. A
    re-touch ``t`` continues the run of ``t - 1`` when ``t - 1`` is a
    re-touch of the same request and ``prev[t] == prev[t - 1] + 1``, as
    when a multi-block get is read again. The window of ``t`` is then
    the window of ``t - 1`` less position ``prev[t]``, which that window
    counts (its pair is touched again only at ``t``, not before ``r``),
    so ``dist(t) = dist(t - 1) - 1`` exactly. Only the head of each run
    holding a touch the bounds leave open is counted, even where its own
    bounds decide it (a kept bound is no distance to step down from),
    and each touch of the run takes the head's kept distance less its
    offset; every other touch keeps its bound.

    The count walks ``[0, rho)`` top-down, largest aligned chunk first:
    at level ``k`` every open head with bit ``k`` of ``rho`` set counts
    the values ``<= p`` of ``q``'s chunk of ``2**k`` just below
    ``rho >> k << k``, by a binary search in a sorted copy of that
    chunk, or whole when the chunk holds only re-touches up to ``p``.
    After level ``k`` a head's distance lies in ``[lo, lo + rem]``
    with ``lo`` the count so far and ``rem = rho % 2**k``, and its run's
    distances are that less 0 to ``span``, the run's touches after the
    head. A head stops as soon as its whole run is decided. If
    ``lo + rem < low`` every touch of the run hits at every nonzero
    capacity, and the head keeps ``lo + rem``: an upper bound, so no
    kept value of the run goes below its distance, nor below 0, and
    each misses at capacity 0. If ``lo - span >= high`` every touch
    misses at every capacity up to ``high``, and the head keeps ``lo``:
    a lower bound, so each kept value stays below the footprint. A
    distance is thus exact wherever a capacity in ``low..high``
    separates it from its bound. ``prev``'s storage is the sort
    buffer: each level copies the chunks its open heads search into
    it, so the caller's ``prev`` is spent.
    """
    total = len(prev)
    # seen[x]: distinct pairs first touched before position x.
    seen = np.zeros(total + 1, dtype=np.int32)
    np.cumsum(prev < 0, dtype=np.int32, out=seen[1:])
    query = np.flatnonzero(prev >= 0).astype(np.int32)
    q = prev[query]
    r = np.repeat(starts, counts)[query]
    seen_r = seen[r]
    upper = np.minimum(r - q, seen_r) - 1
    lower = seen_r - seen[q + 1]
    del seen_r
    exact = (upper >= low) & (lower < high)
    np.copyto(lower, upper, where=upper < low)  # the bound each touch keeps
    dist = np.full(total, total, dtype=np.int32)
    dist[query] = lower
    del upper, lower
    # The runs over the queries, and which of them hold an open touch.
    head = np.ones(len(query), dtype=bool)
    head[1:] = (np.diff(query) != 1) | (np.diff(r) != 0) | (np.diff(q) != 1)
    run = np.cumsum(head, dtype=np.int32) - 1
    heads = np.flatnonzero(head).astype(np.int32)
    counted = np.zeros(len(heads), dtype=bool)
    counted[run[exact]] = True
    span = np.diff(heads, append=np.int32(len(query)))[counted] - 1
    heads = heads[counted]
    bound, r = q[heads] + 1, r[heads]
    rho = r - seen[r]
    lo = seen[r] - bound  # the distance less the count still to take
    inside = bound - seen[bound]  # the re-touches up to p, whose q all count
    del head, exact, r, seen
    kept = np.empty(len(heads), dtype=np.int32)
    live = np.arange(len(heads), dtype=np.int32)  # the open heads' indices in heads
    for k in reversed(range(int(rho.max(initial=0)).bit_length())):
        size = 1 << k
        sel = (rho & size) != 0
        # A chunk of re-touches up to p counts whole.
        whole = sel & (rho >> k << k <= inside)
        lo[whole] += size
        sel = np.flatnonzero(sel ^ whole)
        if len(sel):
            # rho is ascending, so each distinct chunk is one run of sel.
            chunk = rho[sel] >> k
            new = np.ones(len(sel), dtype=bool)
            np.not_equal(chunk[1:], chunk[:-1], out=new[1:])
            rows = chunk[new] - 1
            buffer = prev[:len(rows) << k].reshape(-1, size)
            np.take(q[:int(rows[-1] + 1) << k].reshape(-1, size), rows, axis=0, out=buffer)
            if k:
                buffer.sort(axis=1)
            # The first entry >= p + 1 in each head's sorted chunk.
            first = (np.cumsum(new, dtype=np.int32) - 1) << k
            at = first.copy()
            least = bound[sel]
            step = size
            while step > 1:
                step >>= 1
                at += np.where(prev[at + step - 1] < least, step, 0)
            at += prev[at] < least
            lo[sel] += at - first
        rem = rho & (size - 1)
        below = lo + rem < low
        done = below | (lo - span >= high)
        if done.any():
            kept[live[done]] = (lo + rem * below)[done]
            keep = ~done
            live, rho, lo, bound, span, inside = (a[keep] for a in (live, rho, lo, bound, span, inside))
    kept[live] = lo
    # The query at index i of a counted run is its head's kept distance less i - head.
    base = np.zeros(len(counted), dtype=np.int32)
    base[counted] = kept + heads
    del prev, q, kept, heads
    member = np.flatnonzero(counted[run])
    dist[query[member]] = base[run[member]] - member
    return dist


def sweep(trace: Trace, template: CacheConfig, capacities) -> list[CacheReport]:
    """``simulate`` at each capacity, from one pass over the trace.

    Returns exactly ``[simulate(trace, replace(template, capacity_bytes=c))
    for c in capacities]``. LRU is a stack algorithm (Mattson et al.,
    1970): a touch hits at a capacity of ``c`` blocks iff its stack
    distance is below ``c``, so the touches and their distances are
    computed once and each capacity costs a few array passes. A
    capacity at or past the footprint hits every re-touch, so only the
    largest capacity below it bounds the exact counting. Memory is
    O(block touches), about 33 bytes per touch at peak.
    """
    configs = [replace(template, capacity_bytes=cap) for cap in capacities]
    if not configs:
        return []
    if not len(trace):
        raise ValueError("empty trace")
    block = template.block_bytes
    prev, starts, counts, requested = _touches(trace, block)
    total = len(prev)
    footprint = int(np.count_nonzero(prev < 0))
    caps = [min(config.capacity_blocks, footprint) for config in configs]
    low = min((cap for cap in caps if cap), default=0)
    high = max((cap for cap in caps if cap < footprint), default=0)
    dist = _stack_distances(prev, starts, counts, low, high)
    del prev
    first = np.zeros(total, dtype=bool)
    first[starts] = True
    reports = []
    for cap in caps:
        hit = dist < cap
        hits = int(np.count_nonzero(hit))
        misses = total - hits
        # A miss starts an origin run at its request's first block or after a hit.
        run_start = ~hit
        run_start[1:] &= first[1:] | hit[:-1]
        origin_bytes = misses * block
        reports.append(CacheReport(
            requests_served=len(counts),
            hits=hits,
            misses=misses,
            origin_requests=int(np.count_nonzero(run_start)),
            origin_bytes=origin_bytes,
            requested_bytes=requested,
            read_amplification=origin_bytes / requested if requested else 0.0,
            hit_ratio=hits / total if total else 0.0,
            distinct_blocks=footprint,
        ))
    return reports


def miss_ratio_curve(trace: Trace, template: CacheConfig, capacities) -> list[tuple[int, float]]:
    """Hit ratio at each capacity, from one ``sweep``."""
    caps = list(capacities)
    if caps != sorted(caps):
        raise ValueError("capacities must be sorted ascending")
    return [(cap, report.hit_ratio) for cap, report in zip(caps, sweep(trace, template, caps))]


def distinct_blocks(trace: Trace, block_bytes: int) -> int:
    """Number of distinct (object, block) pairs the trace's gets touch."""
    return int(np.count_nonzero(_touches(trace, block_bytes)[0] < 0))
