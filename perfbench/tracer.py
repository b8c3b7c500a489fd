"""The traced run: one fresh process that runs a workload with spans on.

Usage: python3 tracer.py WORKLOAD RUN_DIR RUN_ID SPANS_OUT METRICS_OUT CHILD_ARG...

It first times a fresh ``import iocost.cli``, then wraps the public
functions of each layer by attribute assignment (nothing under ``src/``
is edited), runs the same work as the untraced child in-process and
prints the same stdout. Each wrapped call records a span with a name,
start, end, parent span and run id in memory; the spans and the
per-layer metrics derived from them are written out at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


class Tracer:
    """In-memory span recorder; spans nest by call stack."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        # Span id -> (args, kwargs, result), for counts taken after the run.
        self.calls: dict[int, tuple] = {}
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, keep: bool = False, rss: bool = False) -> None:
        fn = getattr(owner, attr)

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name,
                "run": self.run_id,
                "parent": self._stack[-1] if self._stack else None,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            if rss:
                span["rss_before"] = rss_bytes()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if rss:
                span["rss_after"] = rss_bytes()
            if keep:
                self.calls[span["id"]] = (args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Duration of the named spans minus that of their direct children."""
        total = 0.0
        for span in self.named(name):
            children = [s for s in self.spans if s["parent"] == span["id"]]
            total += (span["end"] - span["start"]) - sum(c["end"] - c["start"] for c in children)
        return total

    def inside(self, span: dict, ancestor: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == ancestor:
                return True
            parent = self.spans[parent]["parent"]
        return False


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions where they are looked up."""
    from iocost import cachesim, cli, columnar, joinplan, pricing, scenario, tracemodel

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(scenario, "load_scenario", "scenario.load_scenario")
    tracer.wrap(scenario, "run_scenario", "scenario.run_scenario")
    tracer.wrap(scenario, "render_report", "scenario.render_report")
    # scenario binds these two by name at import.
    for owner in (tracemodel, scenario):
        tracer.wrap(owner, "read_trace", "tracemodel.read_trace", keep=True, rss=True)
        tracer.wrap(owner, "synthesize_trace", "tracemodel.synthesize_trace", keep=True, rss=True)
    tracer.wrap(tracemodel, "write_trace", "tracemodel.write_trace", keep=True)
    for fn in ("size_cdf", "popularity_share", "reuse_intervals"):
        tracer.wrap(tracemodel, fn, f"tracemodel.{fn}")
    tracer.wrap(cachesim, "simulate", "cachesim.simulate", keep=True)
    tracer.wrap(cachesim, "miss_ratio_curve", "cachesim.miss_ratio_curve", keep=True)
    tracer.wrap(cachesim, "distinct_blocks", "cachesim.distinct_blocks")
    tracer.wrap(columnar, "synthesize_column_data", "columnar.synthesize_column_data")
    tracer.wrap(columnar, "plan_scan", "columnar.plan_scan", keep=True)
    tracer.wrap(columnar, "coalesce_requests", "columnar.coalesce_requests", keep=True)
    tracer.wrap(columnar, "fleet_scan_projection", "columnar.fleet_scan_projection")
    for fn in ("plan_join", "fleet_aggregate", "fleet_api_calls", "waste_fraction"):
        tracer.wrap(joinplan, fn, "joinplan.plan")
    tracer.wrap(pricing.PriceBook, "cost_of", "pricing.cost_of")


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, sweep_touches_per_point: int) -> dict:
    """Per-layer metrics from the spans; 0 where a layer did no work."""
    t = tracer
    calls = t.calls
    m = {
        "scenario.load_s": t.total("scenario.load_scenario"),
        "scenario.run_self_s": t.self_time("scenario.run_scenario"),
        "scenario.render_s": t.total("scenario.render_report"),
        "pricing.cost_of_calls": len(t.named("pricing.cost_of")),
        "pricing.cost_of_s": t.total("pricing.cost_of"),
        "joinplan.plan_s": t.total("joinplan.plan"),
    }

    reads = t.named("tracemodel.read_trace")
    synths = t.named("tracemodel.synthesize_trace")
    traces = [calls[s["id"]][2] for s in reads + synths]
    records = sum(len(tr) for tr in traces)
    read_s = t.total("tracemodel.read_trace")
    read_records = sum(len(calls[s["id"]][2]) for s in reads)
    rss_growth = sum(s["rss_after"] - s["rss_before"] for s in reads + synths)
    writes = t.named("tracemodel.write_trace")
    m.update({
        "tracemodel.read_s": read_s,
        "tracemodel.read_records_per_s": _per(read_records, read_s),
        "tracemodel.read_bytes": sum(os.path.getsize(calls[s["id"]][0][0]) for s in reads),
        "tracemodel.records": records,
        "tracemodel.get_records": sum(len(tr.gets()) for tr in traces),
        "tracemodel.rss_bytes_per_record": _per(rss_growth, records),
        "tracemodel.synth_s": t.total("tracemodel.synthesize_trace"),
        "tracemodel.write_s": t.total("tracemodel.write_trace"),
        "tracemodel.write_bytes": sum(os.path.getsize(calls[s["id"]][0][1]) for s in writes),
        "tracemodel.size_cdf_s": t.total("tracemodel.size_cdf"),
        "tracemodel.popularity_share_s": t.total("tracemodel.popularity_share"),
        "tracemodel.reuse_intervals_s": t.total("tracemodel.reuse_intervals"),
    })

    # simulate calls made by the sweep belong to the sweep.
    sims = [s for s in t.named("cachesim.simulate") if not t.inside(s, "cachesim.miss_ratio_curve")]
    reports = [calls[s["id"]][2] for s in sims]
    hits = sum(r.hits for r in reports)
    misses = sum(r.misses for r in reports)
    origin = sum(r.origin_requests for r in reports)
    simulate_s = sum(s["end"] - s["start"] for s in sims)
    sweep_s = t.total("cachesim.miss_ratio_curve")
    points = sum(len(calls[s["id"]][2]) for s in t.named("cachesim.miss_ratio_curve"))
    m.update({
        "cachesim.simulate_s": simulate_s,
        "cachesim.block_touches": hits + misses,
        "cachesim.hits": hits,
        "cachesim.misses": misses,
        "cachesim.origin_requests": origin,
        "cachesim.hit_ratio": _per(hits, hits + misses),
        "cachesim.origin_per_miss": _per(origin, misses),
        "cachesim.ns_per_touch": _per(simulate_s * 1e9, hits + misses),
        "cachesim.distinct_blocks_s": t.total("cachesim.distinct_blocks"),
        "cachesim.sweep_s": sweep_s,
        "cachesim.sweep_points": points,
        "cachesim.sweep_touches": points * sweep_touches_per_point,
        "cachesim.sweep_ns_per_touch": _per(sweep_s * 1e9, points * sweep_touches_per_point),
    })

    plans = {True: [], False: []}
    for s in t.named("columnar.plan_scan"):
        args, kwargs, plan = calls[s["id"]]
        pushdown = kwargs.get("pushdown", args[4] if len(args) > 4 else True)
        plans[pushdown].append((s, args[0], plan))
    pushdown_plans = [p for _, _, p in plans[True]]
    coalesced = [
        calls[s["id"]][2] for s in t.named("columnar.coalesce_requests")
        if any(calls[s["id"]][0][0] is p for p in pushdown_plans)
    ]
    rows = sum(layout.rows for _, layout, _ in plans[True])
    requests_pushdown = sum(p.request_count for p in pushdown_plans)
    requests_full = sum(p.request_count for _, _, p in plans[False])
    columnar_s = sum(
        t.total(n) for n in (
            "columnar.synthesize_column_data", "columnar.plan_scan", "columnar.coalesce_requests",
        )
    )
    m.update({
        "columnar.synth_data_s": t.total("columnar.synthesize_column_data"),
        "columnar.plan_pushdown_s": sum(s["end"] - s["start"] for s, _, _ in plans[True]),
        "columnar.plan_full_s": sum(s["end"] - s["start"] for s, _, _ in plans[False]),
        "columnar.coalesce_s": t.total("columnar.coalesce_requests"),
        "columnar.rows": rows,
        "columnar.survivors": sum(len(p.survivors) for p in pushdown_plans),
        "columnar.requests_pushdown": requests_pushdown,
        "columnar.requests_full": requests_full,
        "columnar.requests_coalesced": sum(p.request_count for p in coalesced),
        "columnar.pushdown_page_fraction": _per(requests_pushdown, requests_full),
        "columnar.ns_per_row": _per(columnar_s * 1e9, rows),
    })
    return m


def main(argv: list[str]) -> int:
    workload, run_dir, run_id, spans_out, metrics_out = argv[:5]
    child_args = argv[5:]
    os.chdir(run_dir)

    rss0 = rss_bytes()
    t0 = time.perf_counter()
    import iocost.cli  # noqa: F401  (the fresh import is what is measured)
    import_s = time.perf_counter() - t0
    import_rss = rss_bytes() - rss0

    tracer = Tracer(run_id)
    instrument(tracer)
    from iocost import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        if workload == "synth_sweep":
            import synth_sweep

            records, seed, points, trace_out = child_args
            out.write(synth_sweep.run(int(records), int(seed), int(points), trace_out))
        else:
            code = cli.main(child_args)
            if code:
                return code
    sys.stdout.write(out.getvalue())

    # Counts taken after the timed work, outside every span.
    touches = 0
    if workload == "synth_sweep":
        import workloads

        touches = workloads.trace_stats(child_args[3])["touches"]
    metrics = {"cli.import_s": import_s, "cli.import_rss_mb": import_rss / 1e6}
    metrics.update(layer_metrics(tracer, touches))
    with open(metrics_out, "w", encoding="utf-8") as fh:
        json.dump(metrics, fh)
    tracer.calls.clear()
    with open(spans_out, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
