"""Run every perfbench workload and keep the results in BENCH_<label>.json.

Usage, from the root of a checkout:

    python3 tools/bench.py LABEL [--seed 1] [--seconds 10] [--trace 0 1] [--root DIR]

For each workload in ``perfbench/spec.json`` and each ``--trace``
value it runs ``perfbench/run.py --workload W --seed S --seconds N
--trace T`` in the checkout at ``--root`` (default: this one) and keeps
the final JSON line it prints: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. It also counts the lines of
``src/iocost/*.py`` there, as ``wc -l`` does, and writes everything to
``BENCH_<label>.json`` in the current directory. Pointing ``--root`` at a
second checkout of another commit gives before and after files from the
same machine. The exit code is 1 if any run failed, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1), default=[0])
    parser.add_argument("--root", default=os.path.dirname(HERE), help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "perfbench", "spec.json"), encoding="utf-8") as fh:
        workloads = list(json.load(fh)["workloads"])
    results = {}
    for workload in workloads:
        for trace in args.trace:
            print(f"{workload} --trace {trace} ...", file=sys.stderr, flush=True)
            results[f"{workload} --trace {trace}"] = run(root, workload, args.seed, args.seconds, trace)
    bench = {
        "command": f"perfbench/run.py --workload W --seed {args.seed} --seconds {args.seconds:g} --trace T",
        "commit": git_commit(root),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(), "python": platform.python_version()},
        "runs": results,
        "src_lines": src_lines(root),
    }
    out = f"BENCH_{args.label}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0 if all(r["exit_code"] == 0 for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
