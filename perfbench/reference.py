"""The yardstick run: a fixed job timed next to every workload run and set-up.

Usage: python3 reference.py

It imports nothing from iocost, so no change to the program moves it;
only the machine's speed at that moment does. The job is of the same
kind as the program's work: interpreter start and the numpy import, then
trace lines parsed with ``json`` into records, sorted and run through an
LRU block cache. ``run.py`` divides each workload run's and set-up's
time by the mean of the yardstick runs just before and after it.
"""

import json
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

MB = 10**6


@dataclass(frozen=True, slots=True)
class Rec:
    ts_ms: int
    obj: str
    off: int
    length: int


def _lines(n: int) -> list[str]:
    rng = np.random.default_rng(0)
    objs = rng.integers(0, 2_000, size=n).tolist()
    lens = rng.integers(1, 3 * MB, size=n).tolist()
    return [
        json.dumps(
            {"ts_ms": (i * 7919) % 1_000_003, "obj": f"o{o:06d}", "off": (i % 7) * MB, "len": n_bytes,
             "kind": "get"},
            separators=(",", ":"),
        )
        for i, (o, n_bytes) in enumerate(zip(objs, lens))
    ]


def _lru_hits(recs, capacity: int) -> int:
    cache: OrderedDict = OrderedDict()
    hits = 0
    for r in recs:
        for block in range(r.off // MB, (r.off + r.length - 1) // MB + 1):
            key = (r.obj, block)
            if key in cache:
                hits += 1
                cache.move_to_end(key)
            else:
                cache[key] = None
        while len(cache) > capacity:
            cache.popitem(last=False)
    return hits


def main() -> int:
    recs = [Rec(d["ts_ms"], d["obj"], d["off"], d["len"]) for d in map(json.loads, _lines(8_000))]
    recs.sort(key=lambda r: r.ts_ms)
    return _lru_hits(recs, 1_000)


if __name__ == "__main__":
    print(main())
