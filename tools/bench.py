"""Run every perfbench workload and keep the results in BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench.py LABEL [--seed 1] [--seconds 10] [--trace 0 1] [--root DIR]
    python3 tools/bench.py LABEL --against DIR [--pairs 10] [--seed 1] [--seconds 10] [--root DIR]

For each workload in ``perfbench/spec.json`` and each ``--trace``
value it runs ``perfbench/run.py --workload W --seed S --seconds N
--trace T`` in the checkout at ``--root`` (default: this one) and keeps
the final JSON line it prints: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. It also counts the lines of
``src/iocost/*.py`` there, as ``wc -l`` does, and writes everything to
``BENCH_<label>.json`` in the current directory. Pointing ``--root`` at a
second checkout of another commit gives before and after files from the
same machine.

With ``--against DIR`` it makes ``--pairs`` pairs of ``--trace 0`` runs
of each workload instead, one run in ``--root`` ("this") and one in
``DIR`` ("against"), and alternates which of the two runs first from one
pair to the next. The file then holds every pair's end-to-end values
and, for each workload and each end-to-end metric of ``BENCHMARK.json``,
both sides' median and quartiles and the pairs each side won (a tie is
won by neither); the same summary is printed as a table, followed by
each ``src/iocost/*.py`` file whose line count differs between the two
sides, with its delta, and each side's line total. Each line of the
table also gives the change of the median as a share of the "against"
median, positive when worse, and the metric's ``bound`` from
``BENCHMARK.json`` when it has one, marked "beyond bound" when the
change is worse by more than that.

The exit code is 1 if any run failed, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def src_lines(root: str) -> dict:
    """Newline count of each ``src/iocost/*.py`` file and their total, as ``wc -l`` gives them."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(root, "src", "iocost", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.relpath(path, root)] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def line_deltas(this: dict, against: dict) -> list[str]:
    """A line for each file whose count differs between two ``src_lines`` results, with its delta.

    A file on one side only counts 0 lines on the other.
    """
    lines = []
    for path in sorted((this.keys() | against.keys()) - {"total"}):
        mine, theirs = this.get(path, 0), against.get(path, 0)
        if mine != theirs:
            lines.append(f"{path}  this {mine:,}  against {theirs:,}  {mine - theirs:+,}")
    return lines


def git_commit(root: str) -> str | None:
    """The checked-out commit, marked when tracked files differ from it; None outside git."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True)
    except OSError:
        return None
    commit = head.stdout.strip()
    return f"{commit} (modified)" if commit and status.stdout.strip() else commit or None


def run(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The final JSON object of one ``perfbench/run.py`` invocation, with its exit code."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        final = {"correct": False, "error": done.stderr.strip()[-2000:]}
    final["exit_code"] = done.returncode
    return final


def run_values(final: dict) -> dict:
    """One run's metric values by name, with its exit code and counts of attempted and failed runs."""
    counts = {key: final[key] for key in ("exit_code", "correct", "attempted", "failed") if key in final}
    return {**counts, **{name: metric["value"] for name, metric in final.get("metrics", {}).items()}}


def paired(roots: dict, workloads: list, seed: int, seconds: float, pairs: int) -> dict:
    """Each workload's ``pairs`` pairs of untraced runs, one in each of the two ``roots``.

    ``roots`` maps each side's name to its checkout; the side that runs
    first alternates from one pair to the next.
    """
    out = {workload: [] for workload in workloads}
    for i in range(pairs):
        order = list(roots) if i % 2 == 0 else list(roots)[::-1]
        for workload in workloads:
            pair = {"first": order[0]}
            for side in order:
                print(f"pair {i + 1}/{pairs}: {workload} in {side} ...", file=sys.stderr, flush=True)
                pair[side] = run_values(run(roots[side], workload, seed, seconds, 0))
            out[workload].append(pair)
    return out


def quartiles(values: list) -> tuple:
    """First quartile, median and third quartile, interpolated as numpy's default percentile is."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list, better: dict) -> dict:
    """Per metric, both sides' quartiles over a workload's pairs and the pairs each side won.

    ``pairs`` holds one ``{"this": values, "against": values}`` per pair,
    each mapping a metric to its value; ``better`` maps each metric to
    ``"lower"`` or ``"higher"``. A pair that lacks the metric on either
    side is left out, and a tie counts for neither side.
    """
    out = {}
    for metric, direction in better.items():
        rows = [(p["this"][metric], p["against"][metric]) for p in pairs
                if metric in p["this"] and metric in p["against"]]
        if not rows:
            continue
        sign = 1 if direction == "lower" else -1
        out[metric] = {"pairs": len(rows)}
        for side, mine, theirs in (("this", 0, 1), ("against", 1, 0)):
            q1, median, q3 = quartiles([row[mine] for row in rows])
            wins = sum(sign * row[mine] < sign * row[theirs] for row in rows)
            out[metric][side] = {"q1": q1, "median": median, "q3": q3, "wins": wins}
    return out


def summary_table(summary: dict, metrics: dict) -> str:
    """``summarize``'s results for every workload, one line per metric.

    ``metrics`` maps each metric to its ``BENCHMARK.json`` entry. A line
    also gives the change of the "this" median as a share of the "against"
    median, signed by the entry's ``better`` so that worse is positive,
    unless that median is 0, and the entry's ``bound``, if it has one.
    """
    lines = []
    for workload, results in summary.items():
        for metric, s in results.items():
            sides = "  ".join(
                f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, {s[side]['q3']:.4g}] "
                f"won {s[side]['wins']}/{s['pairs']}"
                for side in ("this", "against")
            )
            line = f"{workload:<13} {metric:<12} {sides}"
            spec, base = metrics[metric], s["against"]["median"]
            if base:
                change = (s["this"]["median"] - base) / abs(base) * (1 if spec["better"] == "lower" else -1)
                line += f"  worse by {change:+.1%}"
                if "bound" in spec:
                    line += f"  bound {spec['bound']:.1%}" + ("  beyond bound" if change > spec["bound"] else "")
            lines.append(line)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to run (default: this one)")
    parser.add_argument("--against", metavar="DIR", help="second checkout to run untraced pairs against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload with --against (default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "perfbench", "spec.json"), encoding="utf-8") as fh:
        workloads = list(json.load(fh)["workloads"])
    host = {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()}
    command = f"perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g}"
    if args.against:
        against = os.path.abspath(args.against)
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
        better = {name: m["better"] for name, m in metrics.items()}
        pairs = paired({"this": root, "against": against}, workloads, args.seed, args.seconds, args.pairs)
        summary = {workload: summarize(p, better) for workload, p in pairs.items()}
        bench = {
            "command": f"{command} --trace 0, {args.pairs} pairs alternating which side runs first",
            "commit": {"this": git_commit(root), "against": git_commit(against)},
            "host": host,
            "pairs": pairs,
            "summary": summary,
            "src_lines": {"this": src_lines(root), "against": src_lines(against)},
        }
        codes = [p[side]["exit_code"] for ps in pairs.values() for p in ps for side in ("this", "against")]
        print(summary_table(summary, metrics))
        for line in line_deltas(bench["src_lines"]["this"], bench["src_lines"]["against"]):
            print(line)
        totals = (f"{side} {lines['total']:,}" for side, lines in bench["src_lines"].items())
        print("src/iocost/*.py lines", *totals, sep="  ")
    else:
        results = {}
        for workload in workloads:
            for trace in args.trace:
                print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
                results[f"{workload} --trace {trace}"] = run(root, workload, args.seed, args.seconds, trace)
        bench = {
            "command": f"{command} --trace T",
            "commit": git_commit(root),
            "host": host,
            "runs": results,
            "src_lines": src_lines(root),
        }
        codes = [r["exit_code"] for r in results.values()]
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0 if all(code == 0 for code in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
