"""Scenario files, end-to-end orchestration, and cost reporting.

A scenario is one JSON file naming a price book, an optional workload
(trace file or synthesis parameters), and any of four sections: a
table-level scan, a fleet-level scan projection, a fleet join model,
and a cache simulation. Running it prices every section with the one
price book and emits a deterministic report.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from . import cachesim, columnar, joinplan
from .cachesim import CacheConfig
from .columnar import TableLayout
from .joinplan import FleetParams, JoinSpec
from .pricing import PriceBook, RequestTally, format_usd, get_pricebook, load_pricebook
from .tracemodel import SynthSpec, Trace, read_trace, synthesize_trace
from .units import load_json, parse_bytes

SECTION_ORDER = ("scan", "scan_fleet", "join", "cache")

DAYS_PER_YEAR = 365


@dataclass(frozen=True)
class WorkloadSpec:
    """Where the trace for trace-driven sections comes from."""

    trace_path: str | None = None
    synth: SynthSpec | None = None


@dataclass(frozen=True)
class ScanSection:
    layout: TableLayout
    projection: tuple[str, ...]
    predicates: tuple[columnar.Predicate, ...]
    pushdown: bool
    coalesce_gap: int | None
    data: dict | None


@dataclass(frozen=True)
class ScanFleetSection:
    daily_bytes: int
    avg_request_bytes: int
    inflation: float | int
    page_bytes: int
    pushdown: bool


@dataclass(frozen=True)
class JoinSection:
    params: FleetParams
    probe_bytes: int
    strategy: str
    broadcast_threshold: int
    request_bytes: int


@dataclass(frozen=True)
class CacheSection:
    config: CacheConfig


@dataclass(frozen=True)
class Scenario:
    price_book: PriceBook
    seed: int
    annual: bool
    workload: WorkloadSpec | None
    scan: ScanSection | None
    scan_fleet: ScanFleetSection | None
    join: JoinSection | None
    cache: CacheSection | None
    echo: dict
    source: str


def _fail(key: str, message: str) -> ValueError:
    return ValueError(f"scenario field {key!r}: {message}")


def _get_int(obj: dict, key: str, ctx: str, default=None, minimum=None):
    if key not in obj:
        if default is not None:
            return default
        raise ValueError(f"scenario section {ctx!r} is missing field {key!r}")
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise _fail(f"{ctx}.{key}", f"must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise _fail(f"{ctx}.{key}", f"must be >= {minimum}, got {value}")
    return value


def _get_bytes(obj: dict, key: str, ctx: str, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ValueError(f"scenario section {ctx!r} is missing field {key!r}")
    try:
        return parse_bytes(obj[key])
    except ValueError as exc:
        raise _fail(f"{ctx}.{key}", str(exc)) from None


def _get_bool(obj: dict, key: str, ctx: str, default: bool) -> bool:
    value = obj.get(key, default)
    if not isinstance(value, bool):
        raise _fail(f"{ctx}.{key}", f"must be a boolean, got {value!r}")
    return value


def _check_file(path: str, key: str) -> str:
    if not os.path.isfile(path):
        raise FileNotFoundError(f"scenario field {key!r}: file not found: {path}")
    return path


def _parse_price_book(raw, base_dir: str) -> PriceBook:
    if isinstance(raw, str):
        return get_pricebook(raw)
    if isinstance(raw, dict) and isinstance(raw.get("file"), str):
        path = os.path.join(base_dir, raw["file"])
        return load_pricebook(_check_file(path, "price_book.file"))
    raise _fail("price_book", "must be a built-in id or {\"file\": path}")


def _parse_workload(raw: dict, base_dir: str) -> WorkloadSpec:
    if not isinstance(raw, dict):
        raise _fail("workload", "must be an object")
    has_trace = "trace" in raw
    has_synth = "synthesize" in raw
    if has_trace == has_synth:
        raise _fail("workload", "needs exactly one of 'trace' or 'synthesize'")
    if has_trace:
        if not isinstance(raw["trace"], str):
            raise _fail("workload.trace", f"must be a file path, got {raw['trace']!r}")
        path = os.path.join(base_dir, raw["trace"])
        return WorkloadSpec(trace_path=_check_file(path, "workload.trace"))
    synth = raw["synthesize"]
    if not isinstance(synth, dict):
        raise _fail("workload.synthesize", "must be an object")
    ctx = "workload.synthesize"
    kwargs = {}
    if "records" in synth:
        kwargs["records"] = _get_int(synth, "records", ctx, minimum=1)
    if "anchors" in synth:
        anchors = synth["anchors"]
        if not isinstance(anchors, list) or not all(
            isinstance(a, list) and len(a) == 2 for a in anchors
        ):
            raise _fail(f"{ctx}.anchors", "must be an array of [size, fraction] pairs")
        try:
            kwargs["size_anchors"] = tuple(
                (parse_bytes(size), float(frac)) for size, frac in anchors
            )
        except (TypeError, ValueError) as exc:
            raise _fail(f"{ctx}.anchors", str(exc)) from None
    if "min_bytes" in synth:
        kwargs["min_bytes"] = _get_bytes(synth, "min_bytes", ctx)
    if "objects" in synth:
        kwargs["object_universe"] = _get_int(synth, "objects", ctx, minimum=1)
    if "zipf_exponent" in synth:
        value = synth["zipf_exponent"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise _fail(f"{ctx}.zipf_exponent", f"must be a number, got {value!r}")
        kwargs["zipf_exponent"] = float(value)
    if "duration_ms" in synth:
        kwargs["duration_ms"] = _get_int(synth, "duration_ms", ctx, minimum=1)
    unknown = set(synth) - {"records", "anchors", "min_bytes", "objects", "zipf_exponent", "duration_ms"}
    if unknown:
        raise _fail(ctx, f"unknown fields {sorted(unknown)}")
    try:
        return WorkloadSpec(synth=SynthSpec(**kwargs))
    except ValueError as exc:
        raise _fail(ctx, str(exc)) from None


def _inline_or_file(raw, base_dir: str, key: str) -> dict:
    if isinstance(raw, str):
        path = _check_file(os.path.join(base_dir, raw), key)
        return load_json(path, f"scenario field {key!r}: file")
    if isinstance(raw, dict):
        return raw
    raise _fail(key, "must be an inline object or a file path")


def _parse_scan(raw: dict, base_dir: str) -> ScanSection:
    if not isinstance(raw, dict):
        raise _fail("scan", "must be an object")
    if "layout" not in raw:
        raise ValueError("scenario section 'scan' is missing field 'layout'")
    if "query" not in raw:
        raise ValueError("scenario section 'scan' is missing field 'query'")
    layout_spec = _inline_or_file(raw["layout"], base_dir, "scan.layout")
    query_spec = _inline_or_file(raw["query"], base_dir, "scan.query")
    try:
        layout = columnar.layout_from_dict(layout_spec)
    except ValueError as exc:
        raise _fail("scan.layout", str(exc)) from None
    try:
        select, predicates, pushdown = columnar.query_from_dict(query_spec)
    except ValueError as exc:
        raise _fail("scan.query", str(exc)) from None
    data = raw.get("data")
    if data is not None:
        if not isinstance(data, dict) or not all(
            isinstance(v, list) and all(isinstance(x, int) and not isinstance(x, bool) for x in v)
            for v in data.values()
        ):
            raise _fail("scan.data", "must map column names to integer arrays")
    gap = None
    if raw.get("coalesce_gap") is not None:
        gap = _get_bytes(raw, "coalesce_gap", "scan")
    return ScanSection(
        layout=layout,
        projection=tuple(select),
        predicates=tuple(predicates),
        pushdown=pushdown,
        coalesce_gap=gap,
        data=data,
    )


def _parse_scan_fleet(raw: dict) -> ScanFleetSection:
    if not isinstance(raw, dict):
        raise _fail("scan_fleet", "must be an object")
    ctx = "scan_fleet"
    inflation = raw.get("inflation")
    if not isinstance(inflation, (int, float)) or isinstance(inflation, bool) or inflation <= 0:
        raise _fail(f"{ctx}.inflation", f"must be a positive number, got {inflation!r}")
    return ScanFleetSection(
        daily_bytes=_get_bytes(raw, "daily_bytes", ctx),
        avg_request_bytes=_get_bytes(raw, "avg_request_bytes", ctx),
        inflation=inflation,
        page_bytes=_get_bytes(raw, "page_bytes", ctx),
        pushdown=_get_bool(raw, "pushdown", ctx, True),
    )


def _parse_join(raw: dict) -> JoinSection:
    if not isinstance(raw, dict):
        raise _fail("join", "must be an object")
    ctx = "join"
    fraction = raw.get("broadcast_fraction")
    if not isinstance(fraction, (int, float)) or isinstance(fraction, bool):
        raise _fail(f"{ctx}.broadcast_fraction", f"must be a number, got {fraction!r}")
    strategy = raw.get("strategy", "broadcast")
    if strategy not in joinplan.STRATEGIES:
        raise _fail(f"{ctx}.strategy", f"must be one of {joinplan.STRATEGIES}, got {strategy!r}")
    queries = _get_int(raw, "queries_per_day", ctx, minimum=0)
    workers = _get_int(raw, "workers", ctx, minimum=1)
    build_bytes = _get_bytes(raw, "build_bytes", ctx)
    try:
        params = FleetParams(queries, fraction, workers, build_bytes)
    except ValueError as exc:
        raise _fail(ctx, str(exc)) from None
    return JoinSection(
        params=params,
        probe_bytes=_get_bytes(raw, "probe_bytes", ctx, default=0),
        strategy=strategy,
        broadcast_threshold=_get_bytes(
            raw, "broadcast_threshold", ctx, default=joinplan.DEFAULT_BROADCAST_THRESHOLD
        ),
        request_bytes=_get_bytes(raw, "request_bytes", ctx),
    )


def _parse_cache(raw: dict) -> CacheSection:
    if not isinstance(raw, dict):
        raise _fail("cache", "must be an object")
    ctx = "cache"
    capacity = _get_bytes(raw, "capacity_bytes", ctx)
    block = _get_bytes(raw, "block_bytes", ctx, default=CacheConfig.block_bytes)
    try:
        config = CacheConfig(capacity, block)
    except ValueError as exc:
        raise _fail(ctx, str(exc)) from None
    return CacheSection(config=config)


def scenario_from_dict(raw: dict, base_dir: str = ".", source: str = "inline") -> Scenario:
    """Validate a scenario's JSON form. Relative paths resolve against base_dir."""
    if not isinstance(raw, dict):
        raise ValueError(f"scenario must be a JSON object, got {type(raw).__name__}")
    if "price_book" not in raw:
        raise ValueError("scenario is missing field 'price_book'")
    book = _parse_price_book(raw["price_book"], base_dir)
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise _fail("seed", f"must be an integer, got {seed!r}")
    annual = raw.get("annual", False)
    if not isinstance(annual, bool):
        raise _fail("annual", f"must be a boolean, got {annual!r}")

    workload = _parse_workload(raw["workload"], base_dir) if "workload" in raw else None
    scan = _parse_scan(raw["scan"], base_dir) if "scan" in raw else None
    scan_fleet = _parse_scan_fleet(raw["scan_fleet"]) if "scan_fleet" in raw else None
    join = _parse_join(raw["join"]) if "join" in raw else None
    cache = _parse_cache(raw["cache"]) if "cache" in raw else None

    if scan is None and scan_fleet is None and join is None and cache is None:
        raise ValueError(
            "scenario needs at least one section (scan, scan_fleet, join, or cache)"
        )
    if cache is not None and workload is None:
        raise ValueError("scenario section 'cache' requires a 'workload' section")
    unknown = set(raw) - {
        "price_book", "seed", "annual", "workload", "scan", "scan_fleet", "join", "cache",
    }
    if unknown:
        raise ValueError(f"scenario has unknown fields {sorted(unknown)}")
    return Scenario(
        price_book=book,
        seed=seed,
        annual=annual,
        workload=workload,
        scan=scan,
        scan_fleet=scan_fleet,
        join=join,
        cache=cache,
        echo=raw,
        source=source,
    )


def load_scenario(path: str) -> Scenario:
    """Load and validate a scenario file."""
    if not os.path.isfile(path):
        raise FileNotFoundError(f"scenario file not found: {path}")
    raw = load_json(path, "scenario file")
    return scenario_from_dict(raw, base_dir=os.path.dirname(os.path.abspath(path)), source=path)


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

    def to_dict(self, annual: bool) -> dict:
        out = {
            "name": self.name,
            "requests": self.requests,
            "bytes": self.bytes,
            "nanousd": self.nanousd,
            "usd": self.usd,
            "details": self.details,
            "comparison": self.comparison,
        }
        if annual:
            out["annual_nanousd"] = self.nanousd * DAYS_PER_YEAR
            out["annual_usd"] = format_usd(self.nanousd * DAYS_PER_YEAR)
        return out


@dataclass(frozen=True)
class CostReport:
    """Priced totals for one scenario run."""

    price_book_id: str
    seed: int
    annual: bool
    sections: tuple[SectionResult, ...]
    echo: dict

    @property
    def total_requests(self) -> int:
        return sum(s.requests for s in self.sections)

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes for s in self.sections)

    @property
    def total_nanousd(self) -> int:
        return sum(s.nanousd for s in self.sections)

    def to_dict(self) -> dict:
        out = {
            "price_book": self.price_book_id,
            "seed": self.seed,
            "sections": [s.to_dict(self.annual) for s in self.sections],
            "totals": {
                "requests": self.total_requests,
                "bytes": self.total_bytes,
                "nanousd": self.total_nanousd,
                "usd": format_usd(self.total_nanousd),
            },
            "scenario": self.echo,
        }
        if self.annual:
            out["annual_totals"] = {
                "nanousd": self.total_nanousd * DAYS_PER_YEAR,
                "usd": format_usd(self.total_nanousd * DAYS_PER_YEAR),
            }
        return out


def _priced_side(book: PriceBook, requests: int, nbytes: int) -> dict:
    cost = book.cost_of(RequestTally({"get": requests}, {"get": nbytes} if nbytes else {}))
    return {"requests": requests, "bytes": nbytes, "nanousd": cost, "usd": format_usd(cost)}


def _section(name: str, comparison: dict, chosen: str, details: dict) -> SectionResult:
    """A section priced as its ``chosen`` side of ``comparison``."""
    side = comparison[chosen]
    return SectionResult(
        name=name,
        requests=side["requests"],
        bytes=side["bytes"],
        nanousd=side["nanousd"],
        usd=side["usd"],
        details=details,
        comparison=comparison,
    )


def _run_scan(section: ScanSection, book: PriceBook, seed: int) -> SectionResult:
    data = (
        section.data
        if section.data is not None
        else columnar.synthesize_column_data(section.layout, seed)
    )
    plans = {}
    for mode_pushdown in (True, False):
        plan = columnar.plan_scan(
            section.layout, data, section.projection, section.predicates, pushdown=mode_pushdown
        )
        if section.coalesce_gap is not None:
            plan = columnar.coalesce_requests(plan, section.coalesce_gap)
        plans[mode_pushdown] = plan
    side = {
        "pushdown": _priced_side(book, plans[True].request_count, plans[True].total_bytes),
        "full_scan": _priced_side(book, plans[False].request_count, plans[False].total_bytes),
    }
    mode = "pushdown" if section.pushdown else "full_scan"
    return _section("scan", side, mode, {
        "table": section.layout.table,
        "rows": section.layout.rows,
        "mode": mode,
        "survivors": len(plans[section.pushdown].survivors),
        "coalesce_gap": section.coalesce_gap,
        "data_source": "supplied" if section.data is not None else "synthesized",
    })


def _run_scan_fleet(section: ScanFleetSection, book: PriceBook) -> SectionResult:
    comp = columnar.fleet_scan_projection(
        section.daily_bytes, section.avg_request_bytes, section.inflation, section.page_bytes
    )
    side = {
        "pushdown": _priced_side(book, comp.pushdown_requests, comp.pushdown_bytes),
        "full_scan": _priced_side(book, comp.full_scan_requests, comp.full_scan_bytes),
    }
    mode = "pushdown" if section.pushdown else "full_scan"
    return _section("scan_fleet", side, mode, {
        "daily_bytes": section.daily_bytes,
        "avg_request_bytes": section.avg_request_bytes,
        "inflation": section.inflation,
        "page_bytes": section.page_bytes,
        "mode": mode,
    })


def _run_join(section: JoinSection, book: PriceBook) -> SectionResult:
    params = section.params
    per_query = joinplan.plan_join(
        JoinSpec(
            build_bytes=params.build_bytes,
            probe_bytes=section.probe_bytes,
            workers=params.workers,
            strategy=section.strategy,
            broadcast_threshold=section.broadcast_threshold,
        ),
        section.request_bytes,
    )
    broadcast_bytes = joinplan.fleet_aggregate(params)
    shuffle_bytes = joinplan.fleet_aggregate(
        FleetParams(params.queries_per_day, params.broadcast_fraction, 1, params.build_bytes)
    )
    side = {
        "broadcast": _priced_side(
            book, joinplan.fleet_api_calls(broadcast_bytes, section.request_bytes), broadcast_bytes
        ),
        "shuffle": _priced_side(
            book, joinplan.fleet_api_calls(shuffle_bytes, section.request_bytes), shuffle_bytes
        ),
    }
    waste = joinplan.waste_fraction(params.workers)
    return _section("join", side, per_query.strategy, {
        "strategy": per_query.strategy,
        "queries_per_day": params.queries_per_day,
        "broadcast_fraction": params.broadcast_fraction,
        "workers": params.workers,
        "build_bytes": params.build_bytes,
        "probe_bytes": section.probe_bytes,
        "request_bytes": section.request_bytes,
        "per_query_storage_bytes": per_query.storage_bytes,
        "per_query_requests": per_query.requests,
        "per_query_duplicated_bytes": per_query.duplicated_bytes,
        "per_query_network_bytes": per_query.network_bytes,
        "waste_fraction": f"{float(waste):.4f}",
        "waste_fraction_exact": f"{waste.numerator}/{waste.denominator}",
    })


def _run_cache(section: CacheSection, book: PriceBook, trace: Trace, workload_note: dict) -> SectionResult:
    report = cachesim.simulate(trace, section.config)
    side = {
        "cache": _priced_side(book, report.origin_requests, report.origin_bytes),
        "no_cache": _priced_side(book, report.requests_served, report.requested_bytes),
    }
    return _section("cache", side, "cache", {
        **report.to_dict(),
        "capacity_bytes": section.config.capacity_bytes,
        "effective_capacity_bytes": section.config.effective_capacity_bytes,
        "block_bytes": section.config.block_bytes,
        "distinct_blocks": cachesim.distinct_blocks(trace, section.config.block_bytes),
        "workload": workload_note,
    })


def _materialize_workload(scenario: Scenario) -> tuple[Trace, dict]:
    spec = scenario.workload
    if spec.trace_path is not None:
        trace = read_trace(spec.trace_path)
        note = {"source": "trace", "path": scenario.echo["workload"]["trace"], "records": len(trace)}
    else:
        trace = synthesize_trace(spec.synth, scenario.seed)
        note = {"source": "synthesized", "records": len(trace), "seed": scenario.seed}
    return trace, note


def run_scenario(scenario: Scenario) -> CostReport:
    """Execute every present section and price it with the scenario's book."""
    sections: list[SectionResult] = []
    runners = {
        "scan": lambda: _run_scan(scenario.scan, scenario.price_book, scenario.seed),
        "scan_fleet": lambda: _run_scan_fleet(scenario.scan_fleet, scenario.price_book),
        "join": lambda: _run_join(scenario.join, scenario.price_book),
    }
    if scenario.cache is not None:
        trace, note = _materialize_workload(scenario)
        runners["cache"] = lambda: _run_cache(scenario.cache, scenario.price_book, trace, note)
    for name in SECTION_ORDER:
        if getattr(scenario, name) is None:
            continue
        try:
            sections.append(runners[name]())
        except ValueError as exc:
            raise ValueError(f"section {name!r}: {exc}") from None
    return CostReport(
        price_book_id=scenario.price_book.book_id,
        seed=scenario.seed,
        annual=scenario.annual,
        sections=tuple(sections),
        echo=scenario.echo,
    )


def usd_display(nanousd: int) -> str:
    """Human form of a nanoUSD amount: dollar sign and digit grouping."""
    text = format_usd(nanousd)
    sign = ""
    if text.startswith("-"):
        sign, text = "-", text[1:]
    whole, _, frac = text.partition(".")
    grouped = f"{int(whole):,}"
    return f"{sign}${grouped}.{frac}" if frac else f"{sign}${grouped}"


def render_report(report: CostReport, fmt: str = "json") -> str:
    """Render a report as canonical JSON or an aligned text table."""
    if fmt == "json":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r} (supported: json, table)")
    rows = [("section", "requests", "bytes", "cost")]
    for s in report.sections:
        rows.append((s.name, f"{s.requests:,}", f"{s.bytes:,}", usd_display(s.nanousd)))
    rows.append(
        ("total", f"{report.total_requests:,}", f"{report.total_bytes:,}",
         usd_display(report.total_nanousd))
    )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = [f"cost report (price book {report.price_book_id}, seed {report.seed})", ""]
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) if j else cell.ljust(w) for j, (cell, w) in enumerate(zip(row, widths)))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    if report.annual:
        annual = report.total_nanousd * DAYS_PER_YEAR
        lines.append("")
        lines.append(f"annual total ({DAYS_PER_YEAR} days): {usd_display(annual)}")
    return "\n".join(lines) + "\n"


def _delta_pct(a: int, b: int) -> str:
    if a == 0:
        return "n/a"
    return f"{(b - a) / a * 100:+.1f}%"


def compare(a: CostReport, b: CostReport) -> str:
    """Side-by-side totals of two reports priced with the same book."""
    if a.price_book_id != b.price_book_id:
        raise ValueError(
            f"cannot compare reports priced with different books: "
            f"{a.price_book_id!r} vs {b.price_book_id!r}"
        )
    rows = [("metric", "baseline", "candidate", "delta")]
    rows.append(("requests", f"{a.total_requests:,}", f"{b.total_requests:,}",
                 _delta_pct(a.total_requests, b.total_requests)))
    rows.append(("bytes", f"{a.total_bytes:,}", f"{b.total_bytes:,}",
                 _delta_pct(a.total_bytes, b.total_bytes)))
    rows.append(("cost", usd_display(a.total_nanousd), usd_display(b.total_nanousd),
                 _delta_pct(a.total_nanousd, b.total_nanousd)))
    shared = [s.name for s in a.sections if any(t.name == s.name for t in b.sections)]
    for name in shared:
        sa = next(s for s in a.sections if s.name == name)
        sb = next(s for s in b.sections if s.name == name)
        rows.append((f"{name}.requests", f"{sa.requests:,}", f"{sb.requests:,}",
                     _delta_pct(sa.requests, sb.requests)))
        rows.append((f"{name}.cost", usd_display(sa.nanousd), usd_display(sb.nanousd),
                     _delta_pct(sa.nanousd, sb.nanousd)))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for i, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(w) if j else cell.ljust(w) for j, (cell, w) in enumerate(zip(row, widths)))
        )
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
