"""Scenario files, end-to-end orchestration, and cost reporting.

A scenario is one JSON file naming a price book, an optional workload
(trace file or synthesis parameters), and any of four sections: a
table-level scan, a fleet-level scan projection, a fleet join model,
and a cache simulation. Running it prices every section with the one
price book and emits a deterministic report.

Loading this module loads no section module and no numpy. A section's
parser and runner import the module that models it (``columnar`` for
``scan``, ``joinplan`` for ``scan_fleet`` and ``join``, ``cachesim``
for ``cache``) when that section first appears, and a workload loads
``tracemodel`` when its spec is parsed or its file read, so a run loads
only what its sections use. Each of those modules holds the field
table of its section next to the class whose defaults the table reads.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, replace
from decimal import Decimal
from typing import TYPE_CHECKING

from .pricing import PriceBook, RequestTally, format_usd, get_pricebook, load_pricebook
from .units import REQUIRED, FieldError, _nested, check_fields, load_json, regular_file

if TYPE_CHECKING:
    from .cachesim import CacheConfig
    from .joinplan import FleetParams, JoinSpec
    from .tracemodel import SynthSpec, Trace

DAYS_PER_YEAR = 365


def __getattr__(name):
    # tracemodel's two workload builders, reachable here without loading
    # tracemodel with this module (PEP 562). A run calls them through
    # tracemodel's attributes, so that is where a caller replaces them.
    if name in ("read_trace", "synthesize_trace"):
        from . import tracemodel

        return getattr(tracemodel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Scenario:
    """A checked scenario.

    ``workload`` is a trace path or a ``SynthSpec``. ``sections`` maps
    each section present, in report order, to what its parser in
    ``_SECTIONS`` returned.
    """

    price_book: PriceBook
    seed: int
    annual: bool
    workload: str | SynthSpec | None
    sections: dict
    echo: dict


# One field table per object of the scenario schema, checked by
# units.check_fields: (key, kind, default, minimum). _SCENARIO_FIELDS
# follows _SECTIONS; the tables of workload.synthesize, join and cache
# are tracemodel.SYNTHESIZE_FIELDS, joinplan.JOIN_FIELDS and cachesim.CACHE_FIELDS.
_PRICE_BOOK_FILE_FIELDS = (("file", "str", REQUIRED, None),)
_WORKLOAD_FIELDS = (
    ("trace", "str", None, None),
    ("synthesize", "object", None, None),
)
_SCAN_FIELDS = (
    ("layout", "any", REQUIRED, None),
    ("query", "any", REQUIRED, None),
    ("data", "any", None, None),
    ("coalesce_gap", "bytes", None, None),
)
_SCAN_FLEET_FIELDS = (
    ("daily_bytes", "bytes", REQUIRED, 1),
    ("avg_request_bytes", "bytes", REQUIRED, 1),
    ("inflation", "number", REQUIRED, None),
    ("page_bytes", "bytes", REQUIRED, 1),
    ("pushdown", "bool", True, None),
)


def _parse_price_book(raw, base_dir: str) -> PriceBook:
    if isinstance(raw, str):
        return get_pricebook(raw)
    if not isinstance(raw, dict):
        raise FieldError("scenario", "price_book", 'must be a built-in id or {"file": path}')
    name = check_fields(raw, _PRICE_BOOK_FILE_FIELDS, "scenario", "price_book")["file"]
    path = regular_file(os.path.join(base_dir, name), "scenario field 'price_book.file': file")
    return _nested("price_book.file", load_pricebook, path)


def _parse_workload(raw: dict, base_dir: str) -> str | SynthSpec:
    f = check_fields(raw, _WORKLOAD_FIELDS, "scenario", "workload")
    if (f["trace"] is None) == (f["synthesize"] is None):
        raise FieldError("scenario", "workload", "needs exactly one of 'trace' or 'synthesize'")
    if f["trace"] is not None:
        return regular_file(os.path.join(base_dir, f["trace"]), "scenario field 'workload.trace': file")
    from .tracemodel import synth_spec_from_dict

    return synth_spec_from_dict(f["synthesize"])


def _inline_or_file(raw, base_dir: str, key: str) -> dict:
    if isinstance(raw, str):
        return load_json(os.path.join(base_dir, raw), f"scenario field {key!r}: file")
    if isinstance(raw, dict):
        return raw
    raise FieldError("scenario", key, "must be an inline object or a file path")


def _parse_scan(raw: dict, base_dir: str) -> dict:
    """The checked fields, with ``layout`` a ``TableLayout`` and ``query``
    the ``(select, predicates, pushdown)`` of ``query_from_dict``."""
    from . import columnar

    f = check_fields(raw, _SCAN_FIELDS, "scenario", "scan")
    layout_spec = _inline_or_file(f["layout"], base_dir, "scan.layout")
    query_spec = _inline_or_file(f["query"], base_dir, "scan.query")
    layout = f["layout"] = _nested("scan.layout", columnar.layout_from_dict, layout_spec)
    select, predicates, _ = f["query"] = _nested("scan.query", columnar.query_from_dict, query_spec)
    _nested("scan.query", columnar.query_columns, layout, select, predicates)
    if f["data"] is not None:
        f["data"] = _inline_or_file(f["data"], base_dir, "scan.data")
    data = {} if f["data"] is None else f["data"]
    if not isinstance(data, dict) or not all(
        isinstance(v, list)
        and all(isinstance(x, int) and not isinstance(x, bool) and -2**63 <= x < 2**63 for x in v)
        for v in data.values()
    ):
        raise FieldError(
            "scenario", "scan.data", "must map column names to arrays of 64-bit integers"
        )
    columns = {c.name for c in layout.columns}
    for name, values in data.items():
        path = f"scan.data.{name}"
        if name not in columns:
            raise FieldError("scenario", path, f"table {layout.table!r} has no such column")
        if len(values) != layout.rows:
            raise FieldError("scenario", path, f"has {len(values)} values for {layout.rows} rows")
    return f


def _parse_scan_fleet(raw: dict, base_dir: str) -> dict:
    f = check_fields(raw, _SCAN_FLEET_FIELDS, "scenario", "scan_fleet")
    if f["inflation"] <= 0:
        raise FieldError("scenario", "scan_fleet.inflation", f"must be > 0, got {f['inflation']}")
    return f


def _parse_join(raw: dict, base_dir: str) -> tuple[FleetParams, JoinSpec, int]:
    from .joinplan import JOIN_FIELDS, FleetParams, JoinSpec

    f = check_fields(raw, JOIN_FIELDS, "scenario", "join")
    # After the table, the fraction's range is the one FleetParams check left to fail.
    params = _nested(
        "join.broadcast_fraction", FleetParams,
        f["queries_per_day"], f["broadcast_fraction"], f["workers"], f["build_bytes"],
    )
    spec = _nested(
        "join", JoinSpec,
        f["build_bytes"], f["probe_bytes"], f["workers"], f["strategy"], f["broadcast_threshold"],
    )
    return params, spec, f["request_bytes"]


def _parse_cache(raw: dict, base_dir: str) -> CacheConfig:
    from .cachesim import CACHE_FIELDS, CacheConfig

    return _nested("cache", CacheConfig, **check_fields(raw, CACHE_FIELDS, "scenario", "cache"))


def scenario_from_dict(raw: dict, base_dir: str = ".") -> Scenario:
    """Validate a scenario's JSON form. Relative paths resolve against base_dir."""
    f = check_fields(raw, _SCENARIO_FIELDS, "scenario")
    book = _parse_price_book(f["price_book"], base_dir)
    # The book must classify every kind the runners emit (get, for all of them)
    # before any section runs; a trace's other kinds are known once the cache reads it.
    _nested("price_book", book.classify, "get")
    workload = None if f["workload"] is None else _parse_workload(f["workload"], base_dir)
    sections = {
        name: parse(f[name], base_dir)
        for name, (parse, _) in _SECTIONS.items() if f[name] is not None
    }
    if not sections:
        *names, last = _SECTIONS
        raise ValueError(f"scenario needs at least one section ({', '.join(names)}, or {last})")
    if "cache" in sections and workload is None:
        raise ValueError("scenario section 'cache' requires a 'workload' section")
    return Scenario(
        price_book=book,
        seed=f["seed"],
        annual=f["annual"],
        workload=workload,
        sections=sections,
        echo=raw,
    )


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file."""
    raw = load_json(path, "scenario file")
    return scenario_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)))


@dataclass(frozen=True)
class SectionResult:
    """One priced section of a report."""

    name: str
    requests: int
    bytes: int
    nanousd: int
    usd: str
    details: dict
    comparison: dict


@dataclass(frozen=True)
class CostReport:
    """A run's scenario and its priced sections. ``to_dict`` reads the
    book id, seed, annual flag and echo from the scenario, not copies."""

    scenario: Scenario
    sections: tuple[SectionResult, ...]

    def to_dict(self) -> dict:
        """The report's one dict: both formats of ``render_report`` render it."""
        sections = [asdict(s) for s in self.sections]
        total = sum(s["nanousd"] for s in sections)
        out = {
            "price_book": self.scenario.price_book.book_id,
            "seed": self.scenario.seed,
            "sections": sections,
            "totals": {
                "requests": sum(s["requests"] for s in sections),
                "bytes": sum(s["bytes"] for s in sections),
                "nanousd": total,
                "usd": format_usd(total),
            },
            "scenario": self.scenario.echo,
        }
        if self.scenario.annual:
            for s in sections:
                s["annual_nanousd"] = s["nanousd"] * DAYS_PER_YEAR
                s["annual_usd"] = format_usd(s["annual_nanousd"])
            annual = total * DAYS_PER_YEAR
            out["annual_totals"] = {"nanousd": annual, "usd": format_usd(annual)}
        return out


def _run_scan(section: dict, scenario: Scenario, workload) -> tuple[dict, str, dict]:
    from . import columnar

    layout, data, gap = section["layout"], section["data"], section["coalesce_gap"]
    select, predicates, pushdown = section["query"]
    columns = columnar.synthesize_column_data(layout, scenario.seed) if data is None else data
    sides = {}
    for name, mode_pushdown in (("pushdown", True), ("full_scan", False)):
        plan = columnar.plan_scan(layout, columns, select, predicates, pushdown=mode_pushdown)
        if gap is not None:
            plan = columnar.coalesce_requests(plan, gap)
        sides[name] = plan.reads.tally()
    mode = "pushdown" if pushdown else "full_scan"
    return sides, mode, {
        "table": layout.table,
        "rows": layout.rows,
        "mode": mode,
        # Both modes keep the same rows, so either plan gives the count.
        "survivors": plan.survivor_count,
        "coalesce_gap": gap,
        "data_source": "supplied" if data is not None else "synthesized",
    }


def _run_scan_fleet(section: dict, scenario: Scenario, workload) -> tuple[dict, str, dict]:
    from .joinplan import fleet_scan_projection

    details = {key: value for key, value in section.items() if key != "pushdown"}
    comp = fleet_scan_projection(**details)
    sides = {
        "pushdown": RequestTally({"get": comp.pushdown_requests}, {"get": comp.pushdown_bytes}),
        "full_scan": RequestTally({"get": comp.full_scan_requests}, {"get": comp.full_scan_bytes}),
    }
    mode = "pushdown" if section["pushdown"] else "full_scan"
    return sides, mode, {**details, "mode": mode}


def _run_join(section: tuple, scenario: Scenario, workload) -> tuple[dict, str, dict]:
    from . import joinplan

    params, spec, request_bytes = section
    per_query = joinplan.plan_join(spec, request_bytes)
    sides = {}
    for strategy, fleet in (("broadcast", params), ("shuffle", replace(params, workers=1))):
        nbytes = joinplan.fleet_aggregate(fleet)
        calls = joinplan.fleet_api_calls(nbytes, request_bytes)
        sides[strategy] = RequestTally({"get": calls}, {"get": nbytes})
    waste = joinplan.waste_fraction(params.workers)
    return sides, per_query.strategy, {
        "strategy": per_query.strategy,
        **asdict(params),
        "probe_bytes": spec.probe_bytes,
        "request_bytes": request_bytes,
        **{f"per_query_{key}": value for key, value in asdict(per_query).items() if key != "strategy"},
        "waste_fraction": f"{float(waste):.4f}",
        "waste_fraction_exact": f"{waste.numerator}/{waste.denominator}",
    }


def _run_cache(
    config: CacheConfig, scenario: Scenario, workload: tuple[Trace, dict]
) -> tuple[dict, str, dict]:
    from . import cachesim

    trace, note = workload
    report = cachesim.simulate(trace, config)
    sides = {
        "cache": RequestTally({"get": report.origin_requests}, {"get": report.origin_bytes}),
        "no_cache": RequestTally({"get": report.requests_served}, {"get": report.requested_bytes}),
    }
    return sides, "cache", {
        **report.to_dict(),
        "capacity_bytes": config.capacity_bytes,
        "effective_capacity_bytes": config.effective_capacity_bytes,
        "block_bytes": config.block_bytes,
        "workload": note,
    }


# Each section in report order: its parser, called with the section's
# JSON and the scenario's directory, and its runner, called with what
# the parser returned, the scenario and the workload's (trace, note).
# A runner returns traffic, not prices: ``sides`` maps each side to its
# ``RequestTally``, by the kinds of call the runner models; ``chosen``
# names the side the section reports, and ``details`` is its own dict.
# This is the one list of sections: _SCENARIO_FIELDS and the refusal of
# a scenario with none read it, and the CLI prints the sides a runner returns.
_SECTIONS = {
    "scan": (_parse_scan, _run_scan),
    "scan_fleet": (_parse_scan_fleet, _run_scan_fleet),
    "join": (_parse_join, _run_join),
    "cache": (_parse_cache, _run_cache),
}
_SCENARIO_FIELDS = (
    ("price_book", "any", REQUIRED, None),
    ("seed", "int", 0, 0),
    ("annual", "bool", False, None),
    ("workload", "object", None, None),
    *((name, "object", None, None) for name in _SECTIONS),
)


def _materialize_workload(scenario: Scenario) -> tuple[Trace, dict]:
    from . import tracemodel

    if isinstance(scenario.workload, str):
        trace = tracemodel.read_trace(scenario.workload)
        note = {"source": "trace", "path": scenario.echo["workload"]["trace"], "records": len(trace)}
    else:
        trace = tracemodel.synthesize_trace(scenario.workload, scenario.seed)
        note = {"source": "synthesized", "records": len(trace), "seed": scenario.seed}
    return trace, note


def run_scenario(scenario: Scenario) -> CostReport:
    """Run and price every present section under the scenario's book; the report holds the scenario."""
    results: list[SectionResult] = []
    for name, section in scenario.sections.items():
        # Only the cache section, last in report order, reads the workload,
        # so no other section's fault waits for the trace to be read.
        workload = _materialize_workload(scenario) if name == "cache" else None
        try:
            sides, chosen, details = _SECTIONS[name][1](section, scenario, workload)
            comparison = {side: scenario.price_book.priced(tally) for side, tally in sides.items()}
        except ValueError as exc:
            raise ValueError(f"section {name!r}: {exc}") from None
        results.append(SectionResult(name, **comparison[chosen], details=details, comparison=comparison))
    return CostReport(scenario, tuple(results))


def usd_display(nanousd: int) -> str:
    """Human form of a nanoUSD amount: dollar sign and digit grouping."""
    # A Decimal from a string is exact, and ",f" groups it without rounding.
    return f"{'-' if nanousd < 0 else ''}${Decimal(format_usd(abs(nanousd))):,f}"


def render_report(report: CostReport, fmt: str = "json") -> str:
    """Render a report's ``to_dict`` as canonical JSON or an aligned text table."""
    out = report.to_dict()
    if fmt == "json":
        return json.dumps(out, sort_keys=True, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r} (supported: json, table)")
    rows = [("section", "requests", "bytes", "cost")]
    for s in [*out["sections"], {"name": "total", **out["totals"]}]:
        rows.append((s["name"], f"{s['requests']:,}", f"{s['bytes']:,}", usd_display(s["nanousd"])))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = [f"cost report (price book {out['price_book']}, seed {out['seed']})", ""]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) if j else cell.ljust(w) for j, (cell, w) in enumerate(zip(row, widths)))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if "annual_totals" in out:
        lines.append("")
        lines.append(f"annual total ({DAYS_PER_YEAR} days): {usd_display(out['annual_totals']['nanousd'])}")
    return "\n".join(lines) + "\n"
