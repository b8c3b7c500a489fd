"""Cost modeling of cloud object-storage API calls for analytics I/O.

The package is organized as one module per concern: pricing (price
books, nanoUSD arithmetic), tracemodel (traces, statistics,
synthesis), columnar (scan planning with predicate pushdown), joinplan
(broadcast vs shuffle I/O), cachesim (LRU block cache), and scenario
(end-to-end runs and reports). The `iocost` CLI fronts all of them.
"""

from .cachesim import CacheConfig, CacheReport, miss_ratio_curve, simulate, sweep
from .columnar import (
    Predicate,
    ScanPlan,
    TableLayout,
    build_layout,
    coalesce_requests,
    fleet_scan_projection,
    plan_scan,
)
from .joinplan import (
    FleetParams,
    JoinIoPlan,
    JoinSpec,
    fleet_aggregate,
    fleet_api_calls,
    plan_join,
    waste_fraction,
)
from .pricing import (
    PriceBook,
    RequestTally,
    builtin_pricebooks,
    format_usd,
    get_pricebook,
    load_pricebook,
)
from .scenario import (
    CostReport,
    Scenario,
    load_scenario,
    render_report,
    run_scenario,
)
from .tracemodel import (
    AccessRecord,
    SizeCdf,
    SynthSpec,
    Trace,
    parse_trace,
    popularity_share,
    read_trace,
    reuse_intervals,
    size_cdf,
    synthesize_trace,
    write_trace,
)
from .units import GB, KB, MB, PB, TB, parse_bytes

__version__ = "0.1.0"
