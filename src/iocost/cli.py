"""Command-line interface.

One subcommand per module plus `scenario run` for end-to-end runs.
`scan`, `join` and `cache` run a one-section scenario through the same
section code as `scenario run`, then reshape the result into their own
JSON; `synth` builds a `workload.synthesize` object. A flag that is a
scenario field is stored under the field's name and handed over only
when given, so the field's table supplies its default and checks it,
and a refusal names the scenario field. Byte-valued flags accept
decimal-unit suffixes (KB, MB, GB, TB, PB, all powers of 10); the other
numeric flags are JSON numbers. Exit codes: 0 success (also when the
reader of stdout closes it early), 2 validation error, 3 runtime error.

Each subcommand imports what it uses when it runs; building the parser
loads only this module and ``units``. `price` loads ``pricing``. The
other commands go through ``scenario``, which loads a section's module
only when that section appears, so `price`, `join` and a join-only
`scenario run` never load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import TYPE_CHECKING

from .units import REQUIRED, FieldError, check_fields, check_value, load_json

if TYPE_CHECKING:
    from .scenario import SectionResult


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
    from .pricing import RequestTally, get_pricebook, load_pricebook

    book = load_pricebook(args.book_file) if args.book_file else get_pricebook(args.book)
    raw = check_fields(load_json(args.tally, "tally file"), _TALLY_FIELDS, f"tally file {args.tally}")
    try:
        tally = RequestTally(counts=raw["counts"], transferred_bytes=raw["bytes"] or {})
    except ValueError as exc:
        raise FieldError(f"tally file {args.tally}", "", str(exc)) from None
    _print_json({"price_book": book.book_id, **book.priced(tally)})
    return 0


def _given(args) -> dict:
    """The scenario-field flags that were given, by field name; the rest take the table's default."""
    return {key: getattr(args, key) for key in args.fields if getattr(args, key) is not None}


def _cmd_synth(args) -> int:
    from . import scenario, tracemodel

    check_value(args.seed, "int", "scenario", "seed", 0)
    # --p50, --p90 and --max replace the sizes of SynthSpec's anchors at 0.5, 0.9 and 1.0.
    flags = (args.p50, args.p90, args.max)
    anchors = [[size if flag is None else flag, frac]
               for flag, (size, frac) in zip(flags, tracemodel.SynthSpec.size_anchors)]
    spec = scenario.synth_spec_from_dict({**_given(args), "anchors": anchors})
    trace = tracemodel.synthesize_trace(spec, args.seed)
    tracemodel.write_trace(trace, args.out)
    _print_json({"out": args.out, "records": len(trace), "seed": args.seed})
    return 0


def _run_section(name: str, section: dict, seed: int = 0,
                 workload: dict | None = None) -> SectionResult:
    """Run a one-section scenario priced with a fixed built-in book.

    `scan`, `join` and `cache` pass their given flags as ``section``;
    ``workload`` is its workload object, for a section that reads one.
    """
    from . import scenario

    raw = {"price_book": "s3-standard", "seed": seed, "workload": workload, name: section}
    s = scenario.scenario_from_dict(raw, base_dir=os.getcwd())
    return scenario.run_scenario(s).sections[0]


def _cmd_scan(args) -> int:
    result = _run_section("scan", _given(args), args.seed)
    details, comp = result.details, result.comparison
    out = {key: details[key] for key in ("table", "rows", "mode", "survivors")}
    for mode in ("pushdown", "full_scan"):
        out[mode] = {"requests": comp[mode]["requests"], "bytes": comp[mode]["bytes"]}
    _print_json(out)
    return 0


def _cmd_join(args) -> int:
    result = _run_section("join", _given(args))
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
    report = dict(_run_section("cache", _given(args), workload={"trace": args.trace}).details)
    config = {key: report.pop(key) for key in ("capacity_bytes", "effective_capacity_bytes", "block_bytes")}
    for key in ("distinct_blocks", "workload"):
        del report[key]
    _print_json({"config": {**config, "policy": "lru", "fetch": "per-run"}, "report": report})
    return 0


def _cmd_scenario_run(args) -> int:
    from . import scenario

    s = scenario.load_scenario(args.file)
    if args.annual:
        s = replace(s, annual=True)
    report = scenario.run_scenario(s)
    sys.stdout.write(scenario.render_report(report, args.format))
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
    p_synth.add_argument("--records", type=_number)
    p_synth.add_argument("--seed", type=_number, default=0)
    p_synth.add_argument("--out", required=True, help="output trace path (JSONL)")
    p_synth.add_argument("--p50", help="median request size")
    p_synth.add_argument("--p90", help="90th percentile request size")
    p_synth.add_argument("--max", help="maximum request size")
    p_synth.add_argument("--min-bytes", help="minimum request size")
    p_synth.add_argument("--objects", type=_number, help="object universe size")
    p_synth.add_argument("--zipf", dest="zipf_exponent", type=_number, help="popularity exponent")
    p_synth.add_argument("--duration-ms", type=_number)
    p_synth.set_defaults(func=_cmd_synth,
                         fields=("records", "min_bytes", "objects", "zipf_exponent", "duration_ms"))

    p_scan = sub.add_parser("scan", help="plan a columnar scan with and without pushdown")
    p_scan.add_argument("--layout", required=True, help="layout JSON file")
    p_scan.add_argument("--query", required=True, help="query JSON file")
    p_scan.add_argument("--coalesce-gap", help="merge requests separated by at most this many bytes")
    p_scan.add_argument("--data", help="column data JSON file (synthesized when omitted)")
    p_scan.add_argument("--seed", type=_number, default=0, help="seed for synthesized column data")
    p_scan.set_defaults(func=_cmd_scan, fields=("layout", "query", "coalesce_gap", "data"))

    p_join = sub.add_parser("join", help="broadcast vs shuffle join I/O at fleet scale")
    p_join.add_argument("--workers", type=_number, required=True)
    p_join.add_argument("--build-bytes", required=True)
    p_join.add_argument("--probe-bytes")
    p_join.add_argument("--queries", dest="queries_per_day", type=_number, required=True)
    p_join.add_argument("--broadcast-frac", dest="broadcast_fraction", type=_number, required=True)
    p_join.add_argument("--request-bytes", required=True)
    # joinplan.STRATEGIES, spelled out so that building the parser does not load joinplan.
    p_join.add_argument("--strategy", metavar="{broadcast,shuffle,auto}")
    p_join.set_defaults(func=_cmd_join, fields=("workers", "build_bytes", "probe_bytes", "queries_per_day",
                                                "broadcast_fraction", "request_bytes", "strategy"))

    p_cache = sub.add_parser("cache", help="simulate an LRU block cache over a trace")
    p_cache.add_argument("--trace", required=True, help="trace JSONL file")
    p_cache.add_argument("--capacity", dest="capacity_bytes", required=True)
    p_cache.add_argument("--block", dest="block_bytes")
    p_cache.set_defaults(func=_cmd_cache, fields=("capacity_bytes", "block_bytes"))

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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # A reader that stops reading is no fault of the input or of the
        # program; fd 1 goes to devnull so the exit flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A fault with no text, such as MemoryError(), is named by its type.
        print(f"runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
