"""Trace-driven simulation of a block-granular cache over object storage.

The cache holds fixed-size blocks keyed by (object, block index) under
LRU eviction. A get request touches every block its byte range covers;
missing blocks are fetched from origin one ranged request per
contiguous run of misses, which is where the cache saves API calls on
top of saving bytes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from .tracemodel import Trace
from .units import MB


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


@dataclass(frozen=True)
class CacheReport:
    """Counters from one simulation run.

    Hits and misses are per block touch. Origin requests are ranged
    fetches of contiguous missing-block runs, so origin bytes are
    always a whole number of blocks, which is what read amplification
    measures against the bytes the trace actually asked for.
    """

    requests_served: int
    hits: int
    misses: int
    origin_requests: int
    origin_bytes: int
    requested_bytes: int
    read_amplification: float
    hit_ratio: float

    def to_dict(self) -> dict:
        return {
            "requests_served": self.requests_served,
            "hits": self.hits,
            "misses": self.misses,
            "origin_requests": self.origin_requests,
            "origin_bytes": self.origin_bytes,
            "requested_bytes": self.requested_bytes,
            "read_amplification": self.read_amplification,
            "hit_ratio": self.hit_ratio,
        }


def simulate(trace: Trace, config: CacheConfig) -> CacheReport:
    """Run the trace's get requests through an LRU block cache.

    Blocks touched by one request are walked in ascending order; each
    contiguous run of missing blocks costs one origin request and a
    full block of origin bytes per miss. Eviction happens after the
    request completes, so a request larger than the cache still counts
    its own blocks as single misses.
    """
    if not trace.records:
        raise ValueError("empty trace")
    cap = config.capacity_blocks
    block = config.block_bytes
    lru: OrderedDict[tuple[str, int], None] = OrderedDict()
    served = hits = misses = origin_requests = origin_bytes = requested = 0
    for rec in trace.records:
        if rec.kind != "get":
            continue
        served += 1
        requested += rec.length
        first = rec.off // block
        last = (rec.off + rec.length - 1) // block
        run_len = 0
        for idx in range(first, last + 1):
            key = (rec.obj, idx)
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
    )


def miss_ratio_curve(trace: Trace, template: CacheConfig, capacities) -> list[tuple[int, float]]:
    """Hit ratio at each capacity, one independent simulation per point."""
    caps = list(capacities)
    if caps != sorted(caps):
        raise ValueError("capacities must be sorted ascending")
    return [
        (cap, simulate(trace, replace(template, capacity_bytes=cap)).hit_ratio)
        for cap in caps
    ]


def distinct_blocks(trace: Trace, block_bytes: int) -> int:
    """Number of distinct (object, block) pairs the trace's gets touch."""
    if block_bytes <= 0:
        raise ValueError(f"block bytes must be > 0, got {block_bytes}")
    seen = set()
    for rec in trace.records:
        if rec.kind != "get":
            continue
        first = rec.off // block_bytes
        last = (rec.off + rec.length - 1) // block_bytes
        for idx in range(first, last + 1):
            seen.add((rec.obj, idx))
    return len(seen)
