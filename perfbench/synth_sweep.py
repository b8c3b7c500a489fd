"""The synth_sweep workload: produce and write a trace, then sweep capacities.

Usage: python3 synth_sweep.py RECORDS SEED POINTS TRACE_OUT

Calls the library in a fixed order and prints a canonical JSON report:
``synthesize_trace`` with the default ``SynthSpec`` shape, ``write_trace``,
the trace statistics, ``distinct_blocks``, then ``miss_ratio_curve`` over
capacity 0 and POINTS - 1 log-spaced capacities up to four times the
trace's footprint. Every call goes through a module attribute, so the
traced run sees it.
"""

from __future__ import annotations

import json
import sys

from iocost import cachesim, tracemodel

BLOCK = 10**6


def capacities(distinct: int, points: int) -> list[int]:
    """0, then ``points - 1`` whole-block capacities log-spaced from 1 block to 4x the footprint."""
    top = 4 * distinct
    steps = points - 1
    blocks = sorted({round(top ** (i / (steps - 1))) for i in range(steps)})
    return [0] + [b * BLOCK for b in blocks]


def run(records: int, seed: int, points: int, out: str) -> str:
    trace = tracemodel.synthesize_trace(tracemodel.SynthSpec(records=records), seed)
    tracemodel.write_trace(trace, out)
    cdf = tracemodel.size_cdf(trace)
    share = tracemodel.popularity_share(trace)
    reuse = tracemodel.reuse_intervals(trace)
    distinct = cachesim.distinct_blocks(trace, BLOCK)
    caps = capacities(distinct, points)
    curve = cachesim.miss_ratio_curve(trace, cachesim.CacheConfig(0, BLOCK), caps)
    report = {
        "records": len(trace),
        "seed": seed,
        "size_p50": cdf.quantile(0.5),
        "size_p90": cdf.quantile(0.9),
        "popularity_share_top10k": share,
        "reuse_median_ms": reuse.median_ms,
        "reuse_under_2h": reuse.under_threshold_fraction,
        "distinct_blocks": distinct,
        "footprint_bytes": distinct * BLOCK,
        "curve": [[cap, ratio] for cap, ratio in curve],
    }
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


if __name__ == "__main__":
    records, seed, points, out = sys.argv[1:5]
    sys.stdout.write(run(int(records), int(seed), int(points), out))
