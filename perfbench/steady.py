#!/usr/bin/env python3
"""Steadiness self-check: do two sets of runs of the same code agree?

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--heldout-seed N]

Each of the two sets runs ``run.py`` once per seed (seeds 100 to 109) on
every workload in ``BENCHMARK.json``, one process at a time, for its
``run_seconds``. Per workload and end-to-end metric it prints each set's
median and quartile spread (q3 - q1, as a share of the median) and two
verdicts against the metric's bound in ``BENCHMARK.json``:

- spread: every set's spread is within the bound;
- agree: the two sets' medians differ by no more than the bound, in
  either direction, as a share of the first set's median.

``--heldout-seed`` adds one more run per workload on a seed outside the
sets, so that a claim can be re-checked on a seed not used while the
change was written; its values are printed next to the set medians.
The last line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 100
RUNS = 10
SETS = 2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdicts(sets: list[list[dict]], metrics: list[dict]) -> dict:
    """Per metric: each set's median and spread, and the two verdicts."""
    out = {}
    for m in metrics:
        name, bound = m["name"], m["bound"]
        values = [[r["metrics"][name]["value"] for r in runs if name in r["metrics"]] for runs in sets]
        if any(len(v) < 2 for v in values):
            out[name] = {"medians": [], "spreads": [], "spread_ok": False, "agree_ok": False}
            continue
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        apart = [abs(med - medians[0]) / medians[0] for med in medians[1:]]
        out[name] = {
            "medians": medians,
            "spreads": spreads,
            "bound": bound,
            "spread_ok": all(s <= bound for s in spreads),
            "agree_ok": all(d <= bound for d in apart),
        }
    return out


def main(argv=None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--heldout-seed", type=int, default=None)
    args = parser.parse_args(argv)

    seeds = list(range(FIRST_SEED, FIRST_SEED + RUNS))
    results = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for seed in seeds:
            for w in names:
                r = run_once(w, seed, bench["run_seconds"])
                results[w][s].append(r)
                shown = {k: round(v["value"], 4) for k, v in r["metrics"].items()}
                print(f"set {s + 1} {w} seed {seed}: failed {r['failed']}/{r['attempted']} {shown}",
                      flush=True)

    summary = {"seeds": seeds, "sets": SETS, "workloads": {}}
    ok = True
    for w in names:
        runs = [r for set_runs in results[w] for r in set_runs]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        v = verdicts(results[w], bench["end_to_end"])
        entry = {"error_rate": failed / attempted, "metrics": v}
        print(f"\n{w}: error_rate {failed}/{attempted}")
        for name, d in v.items():
            meds = " ".join(f"{x:.4f}" for x in d["medians"])
            spr = " ".join(f"{x:.3f}" for x in d["spreads"])
            print(f"  {name:<12} medians {meds}  spreads {spr}  bound {d.get('bound')}  "
                  f"spread {'ok' if d['spread_ok'] else 'WIDE'}  agree {'ok' if d['agree_ok'] else 'NO'}")
            ok = ok and d["spread_ok"] and d["agree_ok"]
        if args.heldout_seed is not None:
            r = run_once(w, args.heldout_seed, bench["run_seconds"])
            entry["heldout"] = {"seed": args.heldout_seed, **r}
            shown = {k: round(x["value"], 4) for k, x in r["metrics"].items()}
            print(f"  held-out seed {args.heldout_seed}: failed {r['failed']}/{r['attempted']} {shown}")
            failed += r["failed"]
        ok = ok and failed == 0
        summary["workloads"][w] = entry
    summary["ok"] = ok
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
