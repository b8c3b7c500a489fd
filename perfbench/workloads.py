"""Workload inputs, expected values and output checks.

Each workload has three parts:

- ``generate_<name>(seed, run_dir, sizes)`` writes the program's input
  files into ``run_dir`` from the seed alone and returns the values the
  checks need, computed here without calling the program;
- ``child_argv(name, run_dir, sizes, seed)`` is the untraced child
  process that does the work and prints a canonical report;
- ``check_<name>(expected, stdout)`` returns a list of problems with
  one report; an empty list means every check passed.

The sizes come from ``spec.json`` next to this file.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

MB = 10**6
# s3-standard bills every GET at $0.0004 per 1,000 requests. The checks
# use the published figure, not the program's price table.
S3_GET_NANOUSD = 400

WORKLOADS = ("ingest_cache", "synth_sweep", "scan_join")


def load_spec() -> dict:
    with open(SPEC_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sizes_of(name: str, spec: dict, scale: float = 1.0) -> dict:
    """A workload's sizes, with its count fields shrunk by ``scale`` for quick tests."""
    entry = spec["workloads"][name]
    sizes = dict(entry["sizes"])
    for key in entry["scaled"]:
        sizes[key] = max(1, int(sizes[key] * scale))
    return sizes


# ---------------------------------------------------------------- traces


def trace_stats(path: str, block_bytes: int = MB) -> dict:
    """Get count, get bytes, block touches and distinct blocks of a JSONL trace.

    Parses the file with ``json`` line by line, independent of
    ``iocost.tracemodel``, so the checks do not trust the code they check.
    """
    objs, offs, lens = [], [], []
    records = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            records += 1
            if rec["kind"] == "get":
                objs.append(rec["obj"])
                offs.append(rec.get("off", 0))
                lens.append(rec["len"])
    _, codes = np.unique(np.array(objs), return_inverse=True)
    return {"records": records, **_get_stats(codes, np.array(offs), np.array(lens), block_bytes)}


def _get_stats(obj_codes, off, length, block_bytes: int) -> dict:
    first = off // block_bytes
    last = (off + length - 1) // block_bytes
    spans = last - first + 1
    touches = int(spans.sum())
    # One entry per block touch: (object code, block index).
    starts = np.repeat(first - np.cumsum(spans) + spans, spans)
    blocks = starts + np.arange(touches)
    keys = np.repeat(obj_codes.astype(np.int64), spans) * (int(last.max()) + 1) + blocks
    return {
        "gets": int(len(length)),
        "get_bytes": int(length.sum()),
        "touches": touches,
        "distinct": int(len(np.unique(keys))),
    }


# ---------------------------------------------------------- ingest_cache


def _zipf_picks(rng, universe: int, exponent: float, n: int):
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -exponent
    cum = np.cumsum(weights)
    cum /= cum[-1]
    return np.searchsorted(cum, rng.random(n), side="right")


def generate_ingest_cache(seed: int, run_dir: str, sizes: dict) -> dict:
    """Write a ranged-get trace and a scenario that caches it.

    Kinds are drawn 85% get, 10% put, 2.5% head, 2.5% list. Objects
    are Zipf-popular; a get covers 1 to ``max_get_blocks`` blocks
    (P(k) ~ k^-1.5) and starts block-aligned 30% of the time.
    Timestamps are a slow clock plus jitter, so neighbours are out of
    order and ingest has to sort.
    """
    rng = np.random.default_rng(seed)
    n = sizes["records"]
    block = sizes["block_bytes"]
    obj_blocks = sizes["object_blocks"]
    kmax = sizes["max_get_blocks"]

    u = rng.random(n)
    kind = np.select([u < 0.85, u < 0.95, u < 0.975], [0, 1, 2], 3)
    obj = _zipf_picks(rng, sizes["objects"], sizes["zipf_exponent"], n)
    k_weights = np.arange(1, kmax + 1, dtype=np.float64) ** -1.5
    k = 1 + np.searchsorted(np.cumsum(k_weights) / k_weights.sum(), rng.random(n), side="right")
    k = np.minimum(k, kmax)
    first = (rng.random(n) * (obj_blocks - k + 1)).astype(np.int64)
    head = np.where(rng.random(n) < 0.3, 0, rng.integers(0, block, size=n))
    tail_lo = np.where(k == 1, head, 0)
    tail = tail_lo + (rng.random(n) * (block - tail_lo)).astype(np.int64)
    off = first * block + head
    length = (first + k - 1) * block + tail - off + 1
    put_len = rng.integers(1_000, 16 * MB, size=n)
    ts = np.arange(n, dtype=np.int64) * 10 + rng.integers(0, 400, size=n)

    is_get = kind == 0
    off = np.where(is_get, off, 0)
    length = np.where(is_get, length, np.where(kind == 1, put_len, 0))

    kinds = ("get", "put", "head", "list")
    trace_path = os.path.join(run_dir, "trace.jsonl")
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(
            # The canonical line shape of tracemodel.trace_lines.
            f'{{"ts_ms":{t},"obj":"o{o:06d}","off":{a},"len":{b},"kind":"{kinds[c]}"}}\n'
            for t, o, a, b, c in zip(
                ts.tolist(), obj.tolist(), off.tolist(), length.tolist(), kind.tolist()
            )
        )

    stats = _get_stats(obj[is_get], off[is_get], length[is_get], block)
    capacity = max(1, int(stats["distinct"] * sizes["capacity_fraction"])) * block
    scenario = {
        "price_book": "s3-standard",
        "seed": seed,
        "workload": {"trace": "trace.jsonl"},
        "cache": {"capacity_bytes": capacity, "block_bytes": block},
    }
    with open(os.path.join(run_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2)
    return {"records": n, "capacity_bytes": capacity, "block_bytes": block, **stats}


def check_ingest_cache(expected: dict, stdout: str) -> list[str]:
    report = json.loads(stdout)
    sec = report["sections"][0]
    d = sec["details"]
    return _failed(
        [
            ("one cache section", len(report["sections"]) == 1 and sec["name"] == "cache"),
            ("records ingested", d["workload"]["records"] == expected["records"]),
            ("requests_served == generated gets", d["requests_served"] == expected["gets"]),
            ("requested_bytes == generated get bytes", d["requested_bytes"] == expected["get_bytes"]),
            ("hits + misses == generated block touches", d["hits"] + d["misses"] == expected["touches"]),
            ("origin_requests <= misses", d["origin_requests"] <= d["misses"]),
            ("distinct_blocks == generated distinct blocks", d["distinct_blocks"] == expected["distinct"]),
            ("distinct_blocks <= misses", d["distinct_blocks"] <= d["misses"]),
            ("origin_bytes == misses x block", d["origin_bytes"] == d["misses"] * expected["block_bytes"]),
            ("effective capacity", d["effective_capacity_bytes"] == expected["capacity_bytes"]),
            ("nanousd == origin_requests x get price", sec["nanousd"] == d["origin_requests"] * S3_GET_NANOUSD),
            ("no-cache nanousd == gets x get price",
             sec["comparison"]["no_cache"]["nanousd"] == expected["gets"] * S3_GET_NANOUSD),
            ("totals == section", report["totals"]["nanousd"] == sec["nanousd"]),
        ]
    )


# ----------------------------------------------------------- synth_sweep


def generate_synth_sweep(seed: int, run_dir: str, sizes: dict) -> dict:
    """Nothing to write: the child synthesizes its trace from the seed."""
    return {"records": sizes["records"], "points": sizes["points"], "block_bytes": MB}


def synth_trace_path(run_dir: str) -> str:
    return os.path.join(run_dir, "synth.jsonl")


def check_synth_sweep(expected: dict, stdout: str, stats: dict) -> list[str]:
    """``stats`` is ``trace_stats`` of the trace file the child wrote."""
    report = json.loads(stdout)
    curve = report["curve"]
    caps = [c for c, _ in curve]
    ratios = [r for _, r in curve]
    footprint = stats["distinct"] * expected["block_bytes"]
    past = [r for c, r in curve if c >= footprint]
    full = (stats["touches"] - stats["distinct"]) / stats["touches"]
    return _failed(
        [
            ("records written", stats["records"] == expected["records"] == report["records"]),
            ("every record is a get", stats["gets"] == expected["records"]),
            ("distinct_blocks matches the written trace", report["distinct_blocks"] == stats["distinct"]),
            ("enough capacities", len(curve) >= expected["points"]),
            ("capacities ascend from 0", caps[0] == 0 and caps == sorted(set(caps))),
            ("curve reaches past the footprint", len(past) >= 2),
            ("hit ratio is 0 at capacity 0", ratios[0] == 0),
            ("hit ratio never falls as capacity grows", all(b >= a for a, b in zip(ratios, ratios[1:]))),
            ("hit ratio past the footprint == 1 - distinct/touches",
             all(math.isclose(r, full, rel_tol=1e-12) for r in past)),
        ]
    )


# ------------------------------------------------------------- scan_join


def generate_scan_join(seed: int, run_dir: str, sizes: dict) -> dict:
    """Write a scan + scan_fleet + join scenario and its closed forms.

    The scan's data is left for the program to synthesize from the
    scenario seed. The expected plan reproduces that draw (uniform
    integers in [0, 100), one column after another, documented by
    ``columnar.synthesize_column_data``) and then the plan from page
    arithmetic alone.
    """
    rng = np.random.default_rng(seed)
    rows, page, value = sizes["rows"], sizes["page_bytes"], sizes["value_bytes"]
    gap = sizes["coalesce_gap"]
    workers = int(rng.integers(50, 400))
    queries = int(rng.integers(1_000, 10_000)) * 100
    fraction = str(rng.choice(["0.1", "0.2", "0.25", "0.5"]))
    build = int(rng.integers(1, 200)) * MB
    probe = int(rng.integers(1, 50)) * 100 * MB
    request = int(rng.integers(1, 64)) * 1_000
    daily = int(rng.integers(1, 100)) * 10**15
    avg_req = int(rng.integers(4, 64)) * 1_000
    inflation = int(rng.integers(2, 10))
    fleet_page = MB
    columns = ["A", "B", "C"]
    scenario = {
        "price_book": "s3-standard",
        "seed": seed,
        "scan": {
            "layout": {
                "table": "events",
                "rows": rows,
                "columns": [{"name": c, "page_bytes": page, "value_bytes": value} for c in columns],
            },
            "query": {
                "select": ["C"],
                "where": [{"col": "A", "op": "=", "lit": 7}, {"col": "B", "op": "<", "lit": 10}],
                "pushdown": True,
            },
            "coalesce_gap": gap,
        },
        "scan_fleet": {
            "daily_bytes": daily,
            "avg_request_bytes": avg_req,
            "inflation": inflation,
            "page_bytes": fleet_page,
        },
        "join": {
            "queries_per_day": queries,
            "broadcast_fraction": float(fraction),
            "workers": workers,
            "build_bytes": build,
            "probe_bytes": probe,
            "request_bytes": request,
            "strategy": "broadcast",
        },
    }
    with open(os.path.join(run_dir, "scenario.json"), "w", encoding="utf-8") as fh:
        json.dump(scenario, fh, indent=2)

    data_rng = np.random.default_rng(seed)
    data = {c: data_rng.integers(0, 100, size=rows) for c in columns}
    alive_a = data["A"] == 7
    alive = alive_a & (data["B"] < 10)
    per_page = page // value
    pages_per_col = -(-rows // per_page)
    page_ids = {
        "A": np.arange(pages_per_col),
        "B": np.unique(np.flatnonzero(alive_a) // per_page),
        "C": np.unique(np.flatnonzero(alive) // per_page),
    }
    pushdown = _coalesced(page_ids, columns, per_page, value, rows, gap)
    full = _coalesced({c: np.arange(pages_per_col) for c in columns}, columns, per_page, value, rows, gap)

    bcast = Fraction(queries * workers * build) * Fraction(fraction)
    shuffle = Fraction(queries * build) * Fraction(fraction)
    storage = workers * build + probe
    return {
        "rows": rows,
        "survivors": int(alive.sum()),
        "scan": {"pushdown": pushdown, "full_scan": full},
        "scan_fleet": {
            "pushdown": (-(-daily // avg_req), daily),
            "full_scan": (-(-(inflation * daily) // fleet_page), inflation * daily),
        },
        "join": {
            "broadcast": (math.ceil(bcast / request), int(bcast)),
            "shuffle": (math.ceil(shuffle / request), int(shuffle)),
            "per_query_storage_bytes": storage,
            "per_query_requests": -(-storage // request),
            "per_query_duplicated_bytes": (workers - 1) * build,
            "waste_fraction_exact": f"{workers - 1}/{workers}",
        },
    }


def _coalesced(page_ids: dict, columns, per_page, value, rows, gap) -> tuple[int, int]:
    """(requests, bytes) after merging page reads separated by <= gap bytes."""
    col_bytes = rows * value
    page_bytes = per_page * value
    starts, ends = [], []
    for i, c in enumerate(columns):
        ids = page_ids[c]
        start = i * col_bytes + ids * page_bytes
        starts.append(start)
        ends.append(np.minimum(start + page_bytes, (i + 1) * col_bytes))
    start = np.concatenate(starts)
    end = np.concatenate(ends)
    order = np.argsort(start, kind="stable")
    start, end = start[order], end[order]
    new_run = np.ones(len(start), dtype=bool)
    new_run[1:] = start[1:] - end[:-1] > gap
    firsts = np.flatnonzero(new_run)
    return len(firsts), int((np.maximum.reduceat(end, firsts) - start[firsts]).sum())


def _side(side: dict) -> tuple[int, int]:
    return side["requests"], side["bytes"]


def _priced(side: dict) -> bool:
    return side["nanousd"] == side["requests"] * S3_GET_NANOUSD


def check_scan_join(expected: dict, stdout: str) -> list[str]:
    report = json.loads(stdout)
    secs = {s["name"]: s for s in report["sections"]}
    scan, fleet, join = secs["scan"], secs["scan_fleet"], secs["join"]
    sides = [scan["comparison"][m] for m in ("pushdown", "full_scan")]
    sides += [fleet["comparison"][m] for m in ("pushdown", "full_scan")]
    sides += [join["comparison"][m] for m in ("broadcast", "shuffle")]
    ej = expected["join"]
    jd = join["details"]
    return _failed(
        [
            ("sections", [s["name"] for s in report["sections"]] == ["scan", "scan_fleet", "join"]),
            ("scan survivors", scan["details"]["survivors"] == expected["survivors"]),
            ("scan pushdown totals", list(_side(scan["comparison"]["pushdown"])) == list(expected["scan"]["pushdown"])),
            ("scan full-scan totals", list(_side(scan["comparison"]["full_scan"])) == list(expected["scan"]["full_scan"])),
            ("scan charges the pushdown plan", _side(scan) == _side(scan["comparison"]["pushdown"])),
            ("pushdown never reads more than the full scan",
             scan["comparison"]["pushdown"]["bytes"] <= scan["comparison"]["full_scan"]["bytes"]),
            ("scan_fleet pushdown", list(_side(fleet["comparison"]["pushdown"])) == list(expected["scan_fleet"]["pushdown"])),
            ("scan_fleet full scan", list(_side(fleet["comparison"]["full_scan"])) == list(expected["scan_fleet"]["full_scan"])),
            ("join broadcast == queries x fraction x workers x build",
             list(_side(join["comparison"]["broadcast"])) == list(ej["broadcast"])),
            ("join shuffle == queries x fraction x build", list(_side(join["comparison"]["shuffle"])) == list(ej["shuffle"])),
            ("join charges broadcast", _side(join) == tuple(ej["broadcast"])),
            ("join per-query storage", jd["per_query_storage_bytes"] == ej["per_query_storage_bytes"]),
            ("join per-query requests", jd["per_query_requests"] == ej["per_query_requests"]),
            ("join duplicated bytes", jd["per_query_duplicated_bytes"] == ej["per_query_duplicated_bytes"]),
            ("join waste fraction", jd["waste_fraction_exact"] == ej["waste_fraction_exact"]),
            ("every side priced at the get price", all(_priced(s) for s in sides)),
            ("totals", report["totals"]["requests"] == sum(s["requests"] for s in report["sections"])
             and report["totals"]["nanousd"] == report["totals"]["requests"] * S3_GET_NANOUSD),
        ]
    )


# ---------------------------------------------------------------- common


def _failed(checks) -> list[str]:
    return [name for name, ok in checks if not ok]


GENERATORS = {
    "ingest_cache": generate_ingest_cache,
    "synth_sweep": generate_synth_sweep,
    "scan_join": generate_scan_join,
}


def child_argv(name: str, run_dir: str, sizes: dict, seed: int) -> tuple[list[str], list[str]]:
    """(program, arguments) of the untraced child.

    ``iocost scenario run`` for the scenario workloads, the synth_sweep
    script for the other. The traced run passes the same arguments.
    """
    if name == "synth_sweep":
        return (
            [sys.executable, os.path.join(HERE, "synth_sweep.py")],
            [str(sizes["records"]), str(seed), str(sizes["points"]), synth_trace_path(run_dir)],
        )
    return [sys.executable, "-m", "iocost.cli"], ["scenario", "run", "scenario.json"]
