"""Cost modeling of cloud object-storage API calls for analytics I/O.

The package is organized as one module per concern: pricing (price books,
nanoUSD arithmetic), trace (requests as one table), tracemodel (trace files,
statistics, synthesis), columnar (scan planning with pushdown), joinplan
(the numpy-free fleet calculators), cachesim (LRU block cache), and
scenario (end-to-end runs and reports). The `iocost` CLI fronts all of them.

Importing the package loads none of them: each public name below, and
each submodule, loads its module on first use (PEP 562), so a caller
pays only for the modules it names.
"""

import importlib

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "cachesim": ("CacheConfig", "CacheReport", "miss_ratio_curve", "simulate", "sweep"),
    "columnar": ("Predicate", "ScanPlan", "TableLayout", "build_layout", "coalesce_requests", "plan_scan"),
    "joinplan": (
        "FleetParams", "JoinIoPlan", "JoinSpec", "fleet_aggregate", "fleet_api_calls",
        "fleet_scan_projection", "plan_join", "waste_fraction",
    ),
    "pricing": (
        "PriceBook", "RequestTally", "builtin_pricebooks", "format_usd", "get_pricebook",
        "load_pricebook",
    ),
    "scenario": ("CostReport", "Scenario", "load_scenario", "render_report", "run_scenario"),
    "trace": ("AccessRecord", "Trace"),
    "tracemodel": (
        "SizeCdf", "SynthSpec", "parse_trace", "popularity_share", "read_trace", "reuse_intervals",
        "size_cdf", "synthesize_trace", "write_trace",
    ),
    "units": ("GB", "KB", "MB", "PB", "TB", "parse_bytes"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__version__ = "0.1.0"


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MODULE_OF, *_SUBMODULES})
