"""LRU block-cache simulation against hand oracles, an LRU walk and LRU laws."""

import random
import tracemalloc
from collections import OrderedDict
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from iocost import cachesim
from iocost.cachesim import (
    CacheConfig,
    CacheReport,
    distinct_blocks,
    miss_ratio_curve,
    simulate,
    sweep,
)
from iocost.trace import GET
from iocost.tracemodel import AccessRecord, SynthSpec, Trace, synthesize_trace
from iocost.units import KB, MB

B = 1000  # block size used throughout these tests


def _trace(reqs):
    records = tuple(
        AccessRecord(ts_ms=i, obj=obj, off=off, length=length, kind="get")
        for i, (obj, off, length) in enumerate(reqs)
    )
    return Trace(records)


def _block_read(block_idx, obj="o"):
    return (obj, block_idx * B, B)


def _lru_oracle(trace, config):
    """The cache walked one block touch at a time through an ``OrderedDict``.

    Blocks of a get are walked in ascending order; each contiguous run of
    misses is one origin request, and eviction waits until the request
    ends. The engine must report exactly what this walk reports.
    """
    cap = config.capacity_blocks
    block = config.block_bytes
    lru = OrderedDict()
    seen = set()
    served = hits = misses = origin_requests = origin_bytes = requested = 0
    for rec in trace.gets():
        served += 1
        requested += rec.length
        run_len = 0
        for idx in range(rec.off // block, (rec.off + rec.length - 1) // block + 1):
            key = (rec.obj, idx)
            seen.add(key)
            if key in lru:
                hits += 1
                lru.move_to_end(key)
                if run_len:
                    origin_requests += 1
                    origin_bytes += run_len * block
                    run_len = 0
            else:
                misses += 1
                run_len += 1
                lru[key] = None
        if run_len:
            origin_requests += 1
            origin_bytes += run_len * block
        while len(lru) > cap:
            lru.popitem(last=False)
    touches = hits + misses
    return CacheReport(
        requests_served=served,
        hits=hits,
        misses=misses,
        origin_requests=origin_requests,
        origin_bytes=origin_bytes,
        requested_bytes=requested,
        read_amplification=origin_bytes / requested if requested else 0.0,
        hit_ratio=hits / touches if touches else 0.0,
        distinct_blocks=len(seen),
    )


def test_config_rounds_capacity_down():
    config = CacheConfig(capacity_bytes=2500, block_bytes=B)
    assert config.capacity_blocks == 2
    assert config.effective_capacity_bytes == 2000


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=-1, block_bytes=B)
    with pytest.raises(ValueError):
        CacheConfig(capacity_bytes=0, block_bytes=0)


def test_two_identical_reads():
    trace = _trace([("x", 0, 1000), ("x", 0, 1000)])
    rep = simulate(trace, CacheConfig(capacity_bytes=B, block_bytes=B))
    assert (rep.hits, rep.misses, rep.origin_requests) == (1, 1, 1)
    assert rep.origin_bytes == B
    assert rep.requested_bytes == 2000
    assert rep.hit_ratio == 0.5


def test_cold_read_amplification_1000():
    trace = _trace([("x", 0, KB)])
    rep = simulate(trace, CacheConfig(capacity_bytes=0, block_bytes=MB))
    assert rep.origin_bytes == MB
    assert rep.read_amplification == 1000.0


def test_hand_executed_lru_table():
    # blocks A=0 B=1 C=2, capacity 2 blocks, access string A B A C B C A A
    seq = [0, 1, 0, 2, 1, 2, 0, 0]
    trace = _trace([_block_read(i) for i in seq])
    rep = simulate(trace, CacheConfig(capacity_bytes=2 * B, block_bytes=B))
    # hand table: A:miss B:miss A:hit C:miss(evict B) B:miss(evict A)
    #             C:hit A:miss(evict B) A:hit
    assert rep.misses == 5
    assert rep.hits == 3
    assert rep.origin_requests == 5
    assert rep.origin_bytes == 5 * B
    assert rep.requests_served == 8


def test_request_spanning_blocks():
    trace = _trace([("x", 500, 1000)])  # crosses blocks 0 and 1
    rep = simulate(trace, CacheConfig(capacity_bytes=4 * B, block_bytes=B))
    assert rep.misses == 2
    assert rep.origin_requests == 1  # one contiguous missing run
    assert rep.origin_bytes == 2 * B


def test_eviction_happens_after_the_request():
    # request touches 3 blocks with room for 1: still one 3-block run
    trace = _trace([("x", 0, 3000), ("x", 0, 3000)])
    rep = simulate(trace, CacheConfig(capacity_bytes=B, block_bytes=B))
    # second pass: only block 2 survived, so blocks 0 and 1 miss again
    assert rep.misses == 5
    assert rep.hits == 1
    assert rep.origin_requests == 2
    assert rep.origin_bytes == 5 * B


def test_interior_hit_splits_origin_run():
    # block 1 cached, then a read spanning 0..2 fetches two runs
    trace = _trace([_block_read(1), ("o", 0, 3000)])
    rep = simulate(trace, CacheConfig(capacity_bytes=10 * B, block_bytes=B))
    assert rep.requests_served == 2
    assert rep.origin_requests == 3
    # per-run fetching can issue more origin requests than the trace
    # had gets; the per-block bound still holds
    assert rep.origin_requests <= rep.hits + rep.misses


def test_zero_capacity_retains_nothing():
    trace = _trace([("x", 0, 1000)] * 5)
    rep = simulate(trace, CacheConfig(capacity_bytes=0, block_bytes=B))
    assert rep.hits == 0
    assert rep.misses == 5
    assert rep.origin_requests == 5


def test_puts_are_ignored():
    records = (
        AccessRecord(0, "x", 0, 1000, "put"),
        AccessRecord(1, "x", 0, 1000, "get"),
        AccessRecord(2, "y", 0, 0, "head"),
    )
    rep = simulate(Trace(records), CacheConfig(capacity_bytes=B, block_bytes=B))
    assert rep.requests_served == 1
    assert rep.misses == 1


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="empty trace"):
        simulate(Trace(()), CacheConfig(capacity_bytes=0, block_bytes=B))


def _random_trace(rng, n=120):
    reqs = []
    for _ in range(n):
        obj = f"o{rng.randint(0, 3)}"
        off = rng.randint(0, 20) * 500
        length = rng.randint(1, 5000)
        reqs.append((obj, off, length))
    return _trace(reqs)


def test_lru_stack_property():
    rng = random.Random(7)
    capacities = [0, 2 * B, 4 * B, 8 * B, 64 * B]
    for _ in range(40):
        trace = _random_trace(rng)
        hits = [simulate(trace, CacheConfig(c, B)).hits for c in capacities]
        assert hits == sorted(hits)


def test_miss_ratio_curve_monotone():
    rng = random.Random(8)
    capacities = [0, B, 4 * B, 16 * B, 256 * B]
    for _ in range(20):
        trace = _random_trace(rng)
        curve = miss_ratio_curve(trace, CacheConfig(0, B), capacities)
        ratios = [r for _, r in curve]
        assert ratios == sorted(ratios)
        assert curve[0][1] == 0.0  # zero capacity never hits


def test_miss_ratio_curve_requires_sorted_capacities():
    trace = _trace([("x", 0, 1000)])
    with pytest.raises(ValueError, match="sorted"):
        miss_ratio_curve(trace, CacheConfig(0, B), [B, 0])


def test_infinite_capacity_law():
    rng = random.Random(9)
    for _ in range(20):
        trace = _random_trace(rng)
        blocks = distinct_blocks(trace, B)
        rep = simulate(trace, CacheConfig(capacity_bytes=blocks * B, block_bytes=B))
        # compulsory misses only: each distinct block fetched once
        assert rep.misses == blocks
        assert rep.origin_bytes == blocks * B


def test_origin_requests_bounded_by_misses():
    rng = random.Random(10)
    for _ in range(40):
        trace = _random_trace(rng)
        for cap in (0, 3 * B, 1000 * B):
            rep = simulate(trace, CacheConfig(cap, B))
            assert rep.origin_requests <= rep.misses
            assert rep.origin_bytes == rep.misses * B
            assert rep.origin_bytes % B == 0


def test_cold_unique_pass_block_coverage():
    # single pass, every object distinct: origin bytes equal the exact
    # block coverage of each request
    rng = random.Random(11)
    reqs = []
    expected_blocks = 0
    for i in range(50):
        off = rng.randint(0, 10_000)
        length = rng.randint(1, 8_000)
        first, last = off // B, (off + length - 1) // B
        expected_blocks += last - first + 1
        reqs.append((f"u{i}", off, length))
    rep = simulate(_trace(reqs), CacheConfig(capacity_bytes=0, block_bytes=B))
    assert rep.origin_bytes == expected_blocks * B
    assert rep.misses == expected_blocks


def test_simulate_is_deterministic():
    trace = _random_trace(random.Random(12))
    config = CacheConfig(5 * B, B)
    assert simulate(trace, config) == simulate(trace, config)


def test_report_to_dict_field_names():
    rep = simulate(_trace([("x", 0, 1000)]), CacheConfig(B, B))
    assert sorted(rep.to_dict()) == [
        "distinct_blocks",
        "hit_ratio",
        "hits",
        "misses",
        "origin_bytes",
        "origin_requests",
        "read_amplification",
        "requested_bytes",
        "requests_served",
    ]

# Records over a few objects: unaligned, overlapping ranges up to 8
# blocks long (larger than the small capacities), mixed with puts and
# heads, which the cache ignores. Whole-block offsets, 0 included,
# make re-reads of the same blocks, whose re-touches form long runs.
_records = st.lists(
    st.tuples(
        st.sampled_from(["get", "get", "get", "put", "head"]),
        st.sampled_from(["a", "b", "c"]),
        st.integers(0, 12 * B) | st.integers(0, 12).map(lambda i: i * B),
        st.integers(1, 8 * B),
    ),
    min_size=1,
    max_size=40,
)
# Random capacities plus, in every example, 0, one block, non-multiples
# of the block (one of them twice) and a capacity past any footprint (at
# most 3 objects x 20 blocks).
_capacities = st.lists(st.integers(0, 70 * B), max_size=6).map(
    lambda caps: sorted(caps + [0, B, B + 1, 2 * B - 1, 2 * B - 1, 100 * B])
)


def _mixed_trace(recs):
    return Trace(tuple(
        AccessRecord(i, obj, off, length if kind != "head" else 0, kind)
        for i, (kind, obj, off, length) in enumerate(recs)
    ))


def _walked(trace, capacities, block=B):
    return [_lru_oracle(trace, CacheConfig(cap, block)) for cap in capacities]


@given(_records, _capacities)
def test_sweep_equals_simulate_property(recs, capacities):
    trace = _mixed_trace(recs)
    reports = sweep(trace, CacheConfig(0, B), capacities)
    assert reports == _walked(trace, capacities)
    assert reports[-1].misses == distinct_blocks(trace, B)  # 100 * B is past the footprint


# One capacity is both the smallest and the largest, so the hit cut and
# the miss cut of the distance bounds apply to the same touches.
@given(_records, st.integers(0, 70 * B))
def test_simulate_equals_oracle_property(recs, capacity):
    trace = _mixed_trace(recs)
    config = CacheConfig(capacity, B)
    assert simulate(trace, config) == _lru_oracle(trace, config)


def _retouch_distances(trace, capacity_blocks):
    """(position, distance) of every re-touch as the engine keeps it."""
    prev, starts, counts, _ = cachesim._touches(trace, B)
    retouches = np.flatnonzero(prev >= 0)  # read first: the kernel sorts prev
    dist = cachesim._stack_distances(prev, starts, counts, capacity_blocks, capacity_blocks)
    return [(int(pos), int(dist[pos])) for pos in retouches]


def test_upper_bound_decides_every_retouch_at_the_footprint():
    # X A B B A: A's window holds B twice, and only X and B were seen
    # before it besides A itself, so its upper bound is 2 (its exact
    # distance is 1); B's window is empty
    trace = _trace([_block_read(i) for i in (9, 0, 1, 1, 0)])
    assert _retouch_distances(trace, 3) == [(3, 0), (4, 2)]
    config = CacheConfig(3 * B, B)
    assert simulate(trace, config) == _lru_oracle(trace, config)
    assert simulate(trace, config).hits == 2


def test_lower_bound_decides_every_retouch_at_one_block():
    # A B C D then A B C again: each re-read's window holds the first
    # touch of every later block, at least one, so each keeps its lower
    # bound 3, 2, 1 (the exact distance is 3 for all three)
    trace = _trace([_block_read(i) for i in (0, 1, 2, 3, 0, 1, 2)])
    assert _retouch_distances(trace, 1) == [(4, 3), (5, 2), (6, 1)]
    config = CacheConfig(B, B)
    assert simulate(trace, config) == _lru_oracle(trace, config)
    assert simulate(trace, config).hits == 0


# Z Y [A B C D] Y Y [A B C D]: the re-read of the four-block get is one
# run. A's window holds B, C, D and Y twice, so its bounds are 3 and 5
# around its distance 4, and each later block's window is the one
# before it less that block's own earlier touch, one distance lower.
_REREAD = [
    _block_read(9), _block_read(8), ("o", 0, 4 * B), _block_read(8), _block_read(8), ("o", 0, 4 * B)
]


def test_a_reread_get_is_one_run_stepping_down_by_one():
    trace = _trace(_REREAD)
    assert _retouch_distances(trace, 4) == [(6, 4), (7, 0), (8, 4), (9, 3), (10, 2), (11, 1)]
    config = CacheConfig(4 * B, B)
    assert simulate(trace, config) == _lru_oracle(trace, config)
    assert simulate(trace, config).hits == 4


def test_a_run_whose_head_its_bounds_decide_is_still_counted_from_the_head():
    # At 3 blocks A's lower bound 3 decides a miss, but B's bounds 2
    # and 5 leave it open; B's distance is A's exact 4 less one, so B
    # misses too, where A's kept bound less one would make it hit
    trace = _trace(_REREAD)
    assert _retouch_distances(trace, 3) == [(6, 4), (7, 0), (8, 4), (9, 3), (10, 2), (11, 1)]
    config = CacheConfig(3 * B, B)
    assert simulate(trace, config) == _lru_oracle(trace, config)
    assert simulate(trace, config).hits == 3


@given(_records)
def test_exact_distances_match_a_set_oracle_property(recs):
    # With low = 1 and high = the footprint no bound decides a touch, so
    # every re-touch's distance is its exact count: the distinct pairs
    # touched after its previous touch and before its request's first.
    # Capacities see a distance only through which side of them it
    # falls on, so this checks what the simulate oracles cannot.
    trace = _mixed_trace(recs)
    pairs, request_start = [], []
    for r in trace.gets():
        start = len(pairs)
        for idx in range(r.off // B, (r.off + r.length - 1) // B + 1):
            pairs.append((r.obj, idx))
            request_start.append(start)
    last, want = {}, {}
    for t, pair in enumerate(pairs):
        if pair in last:
            want[t] = len(set(pairs[last[pair] + 1:request_start[t]]))
        last[pair] = t
    prev, starts, counts, _ = cachesim._touches(trace, B)
    retouches = np.flatnonzero(prev >= 0)  # read first: the kernel sorts prev
    footprint = int(np.count_nonzero(prev < 0))
    dist = cachesim._stack_distances(prev, starts, counts, 1, footprint)
    assert {int(t): int(dist[t]) for t in retouches} == want


def _exact_distances(trace, block=B):
    """Each re-touch's exact distance by a set walk: {position: distinct pairs in its window}."""
    pairs, request_start = [], []
    for r in trace.gets():
        start = len(pairs)
        for idx in range(r.off // block, (r.off + r.length - 1) // block + 1):
            pairs.append((r.obj, idx))
            request_start.append(start)
    last, want = {}, {}
    for t, pair in enumerate(pairs):
        if pair in last:
            want[t] = len(set(pairs[last[pair] + 1:request_start[t]]))
        last[pair] = t
    return want


@given(_records, st.data())
def test_kept_distances_decide_every_capacity_property(recs, data):
    # The kernel's contract for any low <= high: each re-touch's kept
    # distance falls on the same side as its exact distance of capacity
    # 0, of every capacity in low..high and of the footprint, and it is
    # exact wherever the exact distance lies in [low, high).
    trace = _mixed_trace(recs)
    prev, starts, counts, _ = cachesim._touches(trace, B)
    footprint = int(np.count_nonzero(prev < 0))
    low = data.draw(st.integers(0, footprint), label="low")
    high = data.draw(st.integers(low, footprint), label="high")
    dist = cachesim._stack_distances(prev, starts, counts, low, high)
    want = _exact_distances(trace)
    caps = {0, footprint, *range(low, high + 1)}
    for t, exact in want.items():
        kept = int(dist[t])
        assert [kept < cap for cap in sorted(caps)] == [exact < cap for cap in sorted(caps)], (t, kept, exact)
        if low <= exact < high:
            assert kept == exact, (t, kept, exact)
    first = np.setdiff1d(np.arange(len(dist)), list(want))
    assert (dist[first] >= footprint).all()  # a first touch misses at every capacity


def test_a_run_that_stops_below_low_keeps_the_upper_end_of_its_count():
    # C D [A B] E E E E [A B] C at 4 blocks. The re-read [A B] is one
    # run, and A's bounds 2 and 4 leave it open. Before its request come
    # 3 re-touches, all of E; the top level, of 2, finds none of them
    # at or before A's previous touch, so A's distance lies in [2, 3]
    # and the run's in [1, 3]: below 4, the run stops there. A keeps the
    # upper end 3 and B 2, each at least its distance (2 and 1), so no
    # kept value goes below 0, and both miss at capacity 0.
    trace = _trace([
        _block_read(2), _block_read(3), ("o", 0, 2 * B), _block_read(4), _block_read(4),
        _block_read(4), _block_read(4), ("o", 0, 2 * B), _block_read(2),
    ])
    kept = _retouch_distances(trace, 4)
    assert kept == [(5, 0), (6, 0), (7, 0), (8, 3), (9, 2), (10, 4)]
    exact = _exact_distances(trace)
    assert all(d >= exact[t] >= 0 for t, d in kept)
    capacities = [0, 4 * B]
    assert sweep(trace, CacheConfig(0, B), capacities) == _walked(trace, capacities)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_run_that_stops_at_high_keeps_the_lower_end_of_its_count(seed):
    # A few hundred gets over one object of a few one-byte blocks, swept
    # at the footprint less one and at the footprint: low and high are
    # both the footprint less one, so a run whose distances all reach it
    # stops there. Such a run keeps its lower end, below the footprint,
    # and hits at the footprint; its upper end can reach it and miss.
    rng = random.Random(seed)
    blocks = rng.randint(6, 10)
    gets = []
    for _ in range(rng.randint(200, 400)):
        off = rng.randrange(blocks)
        gets.append(("o", off, rng.randint(1, blocks - off)))
    trace = _trace(gets)
    footprint = distinct_blocks(trace, 1)
    capacities = [footprint - 1, footprint]
    reports = sweep(trace, CacheConfig(0, 1), capacities)
    assert reports == [_lru_oracle(trace, CacheConfig(cap, 1)) for cap in capacities]
    assert reports[-1].misses == footprint


def _prev_oracle(trace, block):
    """Each block touch's previous touch of its (object, block) pair, or -1, by a dict walk."""
    last, prev = {}, []
    for rec in trace.gets():
        for idx in range(rec.off // block, (rec.off + rec.length - 1) // block + 1):
            prev.append(last.get((rec.obj, idx), -1))
            last[(rec.obj, idx)] = len(prev) - 1
    return prev


# At 1-byte blocks a record takes its offset and length in whole B-byte
# units, so a get still touches at most 8 blocks. Gets on the shifted
# objects move by whole blocks near 2**61: at 1-byte blocks a trace
# mixing shifted and unshifted gets spans 62 bits of blocks, so with
# its objects and positions the packed key passes 63 bits and the
# grouping takes the lexsort; at B-byte blocks the span is 51 bits.
@example([("get", "a", 0, 3 * B), ("get", "b", 0, 3 * B)], {"a"}, 1)
@example([("get", "a", 0, 3 * B), ("get", "b", 0, 3 * B)], {"a"}, B)
@given(_records, st.sets(st.sampled_from(["a", "b", "c"])), st.sampled_from([1, B]))
def test_touches_prev_matches_a_dict_walk_property(recs, shifted, block):
    if block == 1:
        recs = [(kind, obj, off // B, -(-length // B)) for kind, obj, off, length in recs]
    shift = 2**61 // block * block
    trace = _mixed_trace([
        (kind, obj, off + shift if kind == "get" and obj in shifted else off, length)
        for kind, obj, off, length in recs
    ])
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        prev, starts, counts, _ = cachesim._touches(trace, block)
    assert prev.tolist() == _prev_oracle(trace, block)
    assert counts.sum() == len(prev) and starts.tolist() == (np.cumsum(counts) - counts).tolist()
    get = trace.kind == GET
    if len(prev):
        off, length, obj = trace.off[get], trace.length[get], trace.obj[get]
        spans = (obj.max() - obj.min(), (off + length - 1).max() // block - off.min() // block, len(prev) - 1)
        assert lexsort.called == (sum(int(x).bit_length() for x in spans) > 63)


def test_sweep_memory_per_touch():
    # The kernel counts over the previous-touch array itself; the
    # next-touch array it no longer builds took the peak to 39 bytes.
    trace = synthesize_trace(SynthSpec(records=2 * 10**5), seed=1)
    touches = len(cachesim._touches(trace, MB)[0])
    assert touches == 617_843
    capacities = [0] + [2**i * 10**9 for i in range(8)]
    tracemalloc.start()
    try:
        sweep(trace, CacheConfig(0, MB), capacities)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 38 * touches


@given(_records, _capacities)
def test_sweep_laws_property(recs, capacities):
    reports = sweep(_mixed_trace(recs), CacheConfig(0, B), capacities)
    hits = [r.hits for r in reports]
    assert hits == sorted(hits)  # LRU inclusion
    for rep in reports:
        assert rep.origin_requests <= rep.misses
        assert rep.origin_bytes == rep.misses * B


# A whole number of 700-byte blocks near 2**62 bytes. At 1-byte blocks a
# trace mixing shifted and unshifted gets spans 62 bits of blocks, so
# its (object, block, position) key needs more than 63 bits and
# group_pairs takes the lexsort; at 700-byte blocks the packed key holds
# a 53-bit block span.
_SHIFT = 2**62 // 700 * 700


@given(_records, _capacities, st.sets(st.sampled_from(["a", "b", "c"])), st.sampled_from([1, 700]))
def test_sweep_is_unchanged_by_a_whole_block_shift_of_some_objects_property(
    recs, capacities, shifted, block
):
    moved = [
        (kind, obj, off + _SHIFT if kind == "get" and obj in shifted else off, length)
        for kind, obj, off, length in recs
    ]
    template = CacheConfig(0, block)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        reports = sweep(_mixed_trace(moved), template, capacities)
    assert reports == sweep(_mixed_trace(recs), template, capacities)
    gets = {obj for kind, obj, _, _ in recs if kind == "get"}
    if block == 1 and gets & shifted and gets - shifted:
        assert lexsort.called


@given(_records)
def test_distinct_blocks_matches_set_oracle(recs):
    trace = _mixed_trace(recs)
    oracle = {
        (r.obj, idx)
        for r in trace.gets()
        for idx in range(r.off // B, (r.off + r.length - 1) // B + 1)
    }
    assert distinct_blocks(trace, B) == len(oracle)


def test_sweep_keeps_the_capacity_order_it_is_given():
    trace = _random_trace(random.Random(13))
    capacities = [5 * B, 0, 5 * B, 2 * B]
    assert sweep(trace, CacheConfig(0, B), capacities) == _walked(trace, capacities)


def test_sweep_uses_the_template_block_size():
    trace = _random_trace(random.Random(14))
    template = CacheConfig(0, 700)
    capacities = [0, 700, 3000, 10**6]
    expected = [_lru_oracle(trace, replace(template, capacity_bytes=c)) for c in capacities]
    assert sweep(trace, template, capacities) == expected


def test_sweep_near_the_int64_limit():
    # offsets near 2**62 with 1-byte blocks: block indices near 2**62
    base = 2**62
    trace = _trace([
        ("x", base, 3), ("y", base + 1, 2), ("x", base + 2, 4), ("x", 2**63 - 9, 8),
        ("y", base, 5), ("x", base, 1),
    ])
    capacities = [0, 1, 2, 3, 5, 8, 100]
    template = CacheConfig(0, 1)
    assert sweep(trace, template, capacities) == _walked(trace, capacities, block=1)
    assert distinct_blocks(trace, 1) == 6 + 8 + 5  # x: two runs of blocks, y: one


def test_requested_bytes_past_int64_are_exact():
    # three gets of 2**62 bytes: their total overflows an int64 sum
    trace = _trace([("x", 0, 2**62), ("y", 0, 2**62), ("x", 2**62 - 1, 2**62)])
    config = CacheConfig(2**62, 2**61)
    assert simulate(trace, config).requested_bytes == 3 * 2**62
    assert simulate(trace, config) == _lru_oracle(trace, config)


def test_sweep_errors():
    trace = _trace([("x", 0, 1000)])
    with pytest.raises(ValueError, match="capacity bytes must be >= 0"):
        sweep(trace, CacheConfig(0, B), [0, -1])
    with pytest.raises(ValueError, match="capacity bytes must be >= 0"):
        miss_ratio_curve(trace, CacheConfig(0, B), [-1, 0])
    with pytest.raises(ValueError, match="empty trace"):
        sweep(Trace(()), CacheConfig(0, B), [0])
    assert sweep(Trace(()), CacheConfig(0, B), []) == []  # no capacity, no work
    with pytest.raises(ValueError, match="empty trace"):
        miss_ratio_curve(Trace(()), CacheConfig(0, B), [0])
    with pytest.raises(ValueError, match="block bytes must be > 0"):
        distinct_blocks(trace, 0)


def test_sweep_without_gets():
    trace = Trace((AccessRecord(0, "x", 0, 1000, "put"), AccessRecord(1, "y", 0, 0, "head")))
    reports = sweep(trace, CacheConfig(0, B), [0, B])
    assert reports == _walked(trace, [0, B])
    assert all(r.hit_ratio == 0.0 and r.read_amplification == 0.0 for r in reports)
    assert miss_ratio_curve(trace, CacheConfig(0, B), [0, B]) == [(0, 0.0), (B, 0.0)]
    assert distinct_blocks(trace, B) == 0


def test_touch_bound_refuses_before_expanding(monkeypatch):
    def no_expansion(*args, **kwargs):
        raise AssertionError("touches were expanded")

    monkeypatch.setattr(cachesim.np, "repeat", no_expansion)
    trace = _trace([("x", 0, 10**12), ("y", 0, 1)])
    for run in (
        lambda: simulate(trace, CacheConfig(0, 1)),
        lambda: sweep(trace, CacheConfig(0, 1), [0, 1]),
        lambda: distinct_blocks(trace, 1),
    ):
        with pytest.raises(ValueError, match="more than 100,000,000 blocks of 1 bytes"):
            run()


def test_touch_bound_counts_every_get(monkeypatch):
    monkeypatch.setattr(cachesim, "MAX_TRACE_TOUCHES", 12)
    at_bound = _trace([("x", 0, 5 * B), ("y", 500, 7 * B - 500)])  # 5 + 7 blocks
    config = CacheConfig(4 * B, B)
    assert simulate(at_bound, config) == _lru_oracle(at_bound, config)
    assert distinct_blocks(at_bound, B) == 12
    over = _trace([("x", 0, 5 * B), ("y", 500, 7 * B - 499)])  # 5 + 8 blocks
    with pytest.raises(ValueError, match="more than 12 blocks"):
        simulate(over, config)
