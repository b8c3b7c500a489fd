"""Command-line interface.

One subcommand per module plus `scenario run` for end-to-end runs.
`scan`, `join` and `cache` build a one-section scenario from their
flags and run it through the same section code as `scenario run`,
then reshape the result into their own JSON; `synth` builds a
`workload.synthesize` object. Every flag that is a scenario field is
checked by that field's table, so a refusal names the scenario field.
Byte-valued flags accept decimal-unit suffixes (KB, MB, GB, TB, PB, all
powers of 10); the other numeric flags are JSON numbers. Exit codes: 0
success, 2 validation error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import joinplan, scenario as scenario_mod, tracemodel
from .pricing import RequestTally, format_usd, get_pricebook, load_pricebook
from .tracemodel import SynthSpec
from .units import REQUIRED, check_fields, check_value, load_json


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _number(text: str):
    """A numeric flag's value as its JSON number, else its text, for its field table to check."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError):
        return text
    return value if isinstance(value, (int, float)) and not isinstance(value, bool) else text


# {"counts": {kind: count}, "bytes": {kind: bytes}}; RequestTally checks the entries.
_TALLY_FIELDS = (("counts", "object", REQUIRED, None), ("bytes", "object", None, None))


def _cmd_price(args) -> int:
    book = load_pricebook(args.book_file) if args.book_file else get_pricebook(args.book)
    raw = check_fields(load_json(args.tally, "tally file"), _TALLY_FIELDS, f"tally file {args.tally}")
    tally = RequestTally(counts=raw["counts"], transferred_bytes=raw["bytes"] or {})
    cost = book.cost_of(tally)
    _print_json(
        {
            "price_book": book.book_id,
            "requests": tally.total_requests,
            "bytes": tally.total_bytes,
            "nanousd": cost,
            "usd": format_usd(cost),
        }
    )
    return 0


def _cmd_synth(args) -> int:
    check_value(args.seed, "int", "scenario", "seed", 0)
    spec = scenario_mod.synth_spec_from_dict({
        "records": args.records,
        "anchors": [[args.p50, 0.5], [args.p90, 0.9], [args.max, 1.0]],
        "min_bytes": args.min_bytes,
        "objects": args.objects,
        "zipf_exponent": args.zipf,
        "duration_ms": args.duration_ms,
    })
    trace = tracemodel.synthesize_trace(spec, args.seed)
    tracemodel.write_trace(trace, args.out)
    _print_json({"out": args.out, "records": len(trace), "seed": args.seed})
    return 0


def _run_section(name: str, section: dict, seed: int = 0,
                 workload: dict | None = None) -> scenario_mod.SectionResult:
    """Run a one-section scenario priced with a fixed built-in book.

    `scan`, `join` and `cache` build a one-section scenario from their
    flags; `workload` is its workload object, for a section that reads one.
    """
    raw = {"price_book": "s3-standard", "seed": seed, "workload": workload, name: section}
    s = scenario_mod.scenario_from_dict(raw, base_dir=os.getcwd())
    return scenario_mod.run_scenario(s).sections[0]


def _cmd_scan(args) -> int:
    section = {"layout": args.layout, "query": args.query, "coalesce_gap": args.coalesce_gap}
    if args.data:
        data = load_json(args.data, "data file")
        section["data"] = check_value(data, "object", f"data file {args.data}", "")
    result = _run_section("scan", section, args.seed)
    details, comp = result.details, result.comparison
    out = {key: details[key] for key in ("table", "rows", "mode", "survivors")}
    for mode in ("pushdown", "full_scan"):
        out[mode] = {"requests": comp[mode]["requests"], "bytes": comp[mode]["bytes"]}
    _print_json(out)
    return 0


def _cmd_join(args) -> int:
    result = _run_section("join", {
        "queries_per_day": args.queries,
        "broadcast_fraction": args.broadcast_frac,
        "workers": args.workers,
        "build_bytes": args.build_bytes,
        "probe_bytes": args.probe_bytes,
        "request_bytes": args.request_bytes,
        "strategy": args.strategy,
    })
    details, comp = result.details, result.comparison
    fleet = {}
    for strategy in ("broadcast", "shuffle"):
        fleet[f"{strategy}_bytes_per_day"] = comp[strategy]["bytes"]
        fleet[f"{strategy}_requests_per_day"] = comp[strategy]["requests"]
    _print_json(
        {
            "per_query": {
                "strategy": details["strategy"],
                "storage_bytes": details["per_query_storage_bytes"],
                "requests": details["per_query_requests"],
                "duplicated_bytes": details["per_query_duplicated_bytes"],
                "network_bytes": details["per_query_network_bytes"],
            },
            "fleet": fleet,
            "waste_fraction": details["waste_fraction"],
        }
    )
    return 0


def _cmd_cache(args) -> int:
    section = {"capacity_bytes": args.capacity}
    if args.block is not None:
        section["block_bytes"] = args.block
    report = dict(_run_section("cache", section, workload={"trace": args.trace}).details)
    config = {key: report.pop(key) for key in ("capacity_bytes", "effective_capacity_bytes", "block_bytes")}
    for key in ("distinct_blocks", "workload"):
        del report[key]
    _print_json({"config": {**config, "policy": "lru", "fetch": "per-run"}, "report": report})
    return 0


def _cmd_scenario_run(args) -> int:
    s = scenario_mod.load_scenario(args.file)
    if args.annual:
        s = replace(s, annual=True)
    report = scenario_mod.run_scenario(s)
    sys.stdout.write(scenario_mod.render_report(report, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iocost",
        description="Cost model for cloud object-storage API calls under analytics I/O patterns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="price a request tally with a price book")
    group = p_price.add_mutually_exclusive_group(required=True)
    group.add_argument("--book", help="built-in price book id (e.g. s3-standard)")
    group.add_argument("--book-file", help="price book JSON file")
    p_price.add_argument("--tally", required=True, help="JSON file {\"counts\": {kind: count}}")
    p_price.set_defaults(func=_cmd_price)

    p_synth = sub.add_parser("synth", help="synthesize a workload trace")
    (p50, _), (p90, _), (largest, _) = SynthSpec.size_anchors
    p_synth.add_argument("--records", type=_number, default=SynthSpec.records)
    p_synth.add_argument("--seed", type=_number, default=0)
    p_synth.add_argument("--out", required=True, help="output trace path (JSONL)")
    p_synth.add_argument("--p50", default=p50, help="median request size")
    p_synth.add_argument("--p90", default=p90, help="90th percentile request size")
    p_synth.add_argument("--max", default=largest, help="maximum request size")
    p_synth.add_argument("--min-bytes", default=SynthSpec.min_bytes, help="minimum request size")
    p_synth.add_argument("--objects", type=_number, default=SynthSpec.object_universe,
                         help="object universe size")
    p_synth.add_argument("--zipf", type=_number, default=SynthSpec.zipf_exponent, help="popularity exponent")
    p_synth.add_argument("--duration-ms", type=_number, default=SynthSpec.duration_ms)
    p_synth.set_defaults(func=_cmd_synth)

    p_scan = sub.add_parser("scan", help="plan a columnar scan with and without pushdown")
    p_scan.add_argument("--layout", required=True, help="layout JSON file")
    p_scan.add_argument("--query", required=True, help="query JSON file")
    p_scan.add_argument("--coalesce-gap", help="merge requests separated by at most this many bytes")
    p_scan.add_argument("--data", help="column data JSON file (synthesized when omitted)")
    p_scan.add_argument("--seed", type=_number, default=0, help="seed for synthesized column data")
    p_scan.set_defaults(func=_cmd_scan)

    p_join = sub.add_parser("join", help="broadcast vs shuffle join I/O at fleet scale")
    p_join.add_argument("--workers", type=_number, required=True)
    p_join.add_argument("--build-bytes", required=True)
    p_join.add_argument("--probe-bytes", default="0")
    p_join.add_argument("--queries", type=_number, required=True, help="queries per day")
    p_join.add_argument("--broadcast-frac", type=_number, required=True)
    p_join.add_argument("--request-bytes", required=True)
    p_join.add_argument("--strategy", choices=joinplan.STRATEGIES, default="broadcast")
    p_join.set_defaults(func=_cmd_join)

    p_cache = sub.add_parser("cache", help="simulate an LRU block cache over a trace")
    p_cache.add_argument("--trace", required=True, help="trace JSONL file")
    p_cache.add_argument("--capacity", required=True)
    p_cache.add_argument("--block")
    p_cache.set_defaults(func=_cmd_cache)

    p_scenario = sub.add_parser("scenario", help="scenario file operations")
    sub2 = p_scenario.add_subparsers(dest="scenario_command", required=True)
    p_run = sub2.add_parser("run", help="run a scenario file and print the cost report")
    p_run.add_argument("file", help="scenario JSON file")
    p_run.add_argument("--format", choices=("json", "table"), default="json")
    p_run.add_argument("--annual", action="store_true", help="add the x365 annual extrapolation")
    p_run.set_defaults(func=_cmd_scenario_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; fold --help into success
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
