"""Fleet calculators: broadcast versus shuffle joins, and scans with and without pushdown.

A broadcast join ships the build table to every worker, so fleet-wide
storage reads scale as N x build bytes; a shuffle join reads each table
once and repartitions over the network instead. Without pushdown a fleet
of scans reads ``inflation`` times its bytes. These are exact integer
calculators without numpy, and no join or scan is ever executed; both
per-day models floor bytes at the decimal face value of their fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .units import MB, REQUIRED, ceil_div, exact_fraction

DEFAULT_BROADCAST_THRESHOLD = 100 * MB

STRATEGIES = ("broadcast", "shuffle", "auto")


@dataclass(frozen=True)
class JoinSpec:
    """One join: table sizes, fleet width, and strategy choice."""

    build_bytes: int
    probe_bytes: int
    workers: int
    strategy: str = "auto"
    broadcast_threshold: int = DEFAULT_BROADCAST_THRESHOLD

    def __post_init__(self) -> None:
        if self.build_bytes < 0:
            raise ValueError(f"build bytes must be >= 0, got {self.build_bytes}")
        if self.probe_bytes < 0:
            raise ValueError(f"probe bytes must be >= 0, got {self.probe_bytes}")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.broadcast_threshold < 0:
            raise ValueError(f"broadcast threshold must be >= 0, got {self.broadcast_threshold}")


@dataclass(frozen=True)
class JoinIoPlan:
    """Storage traffic of one join under a chosen strategy.

    ``network_bytes`` is informational only (shuffle repartition
    traffic); it is not storage I/O and is never priced.
    """

    strategy: str
    storage_bytes: int
    requests: int
    duplicated_bytes: int
    network_bytes: int


def plan_join(spec: JoinSpec, request_bytes: int) -> JoinIoPlan:
    """Resolve the strategy and account its storage bytes and requests.

    Broadcast reads the build table once per worker plus the probe
    table once; shuffle reads each table exactly once. ``auto`` picks
    broadcast when the build table is at or under the threshold.
    """
    if request_bytes <= 0:
        raise ValueError(f"request bytes must be > 0, got {request_bytes}")
    strategy = spec.strategy
    if strategy == "auto":
        strategy = "broadcast" if spec.build_bytes <= spec.broadcast_threshold else "shuffle"
    if strategy == "broadcast":
        storage = spec.workers * spec.build_bytes + spec.probe_bytes
        network = 0
    else:
        storage = spec.build_bytes + spec.probe_bytes
        network = spec.build_bytes + spec.probe_bytes
    return JoinIoPlan(
        strategy=strategy,
        storage_bytes=storage,
        requests=ceil_div(storage, request_bytes),
        duplicated_bytes=storage - (spec.build_bytes + spec.probe_bytes),
        network_bytes=network,
    )


def waste_fraction(n: int) -> Fraction:
    """Fraction of broadcast build-table reads that are duplicates, 1 - 1/n.

    Returned as an exact rational so 200 workers give exactly 199/200.
    """
    if n < 1:
        raise ValueError(f"worker count must be >= 1, got {n}")
    return Fraction(n - 1, n)


@dataclass(frozen=True)
class FleetParams:
    """Fleet-wide broadcast volume drivers."""

    queries_per_day: int
    broadcast_fraction: float | Fraction
    workers: int
    build_bytes: int

    def __post_init__(self) -> None:
        if self.queries_per_day < 0:
            raise ValueError(f"queries per day must be >= 0, got {self.queries_per_day}")
        frac = exact_fraction(self.broadcast_fraction)
        if not 0 <= frac <= 1:
            raise ValueError(f"broadcast fraction must be in [0, 1], got {self.broadcast_fraction}")
        if self.workers < 1:
            raise ValueError(f"worker count must be >= 1, got {self.workers}")
        if self.build_bytes < 0:
            raise ValueError(f"build bytes must be >= 0, got {self.build_bytes}")


# A scenario's ``join`` object, checked by units.check_fields: (key,
# kind, default, minimum). It feeds one FleetParams and one JoinSpec;
# its strategy defaults to "broadcast", not JoinSpec's "auto".
JOIN_FIELDS = (
    ("queries_per_day", "int", REQUIRED, 0),
    ("broadcast_fraction", "number", REQUIRED, None),
    ("workers", "int", REQUIRED, 1),
    ("build_bytes", "bytes", REQUIRED, None),
    ("probe_bytes", "bytes", 0, None),
    ("request_bytes", "bytes", REQUIRED, 1),
    ("strategy", STRATEGIES, "broadcast", None),
    ("broadcast_threshold", "bytes", JoinSpec.broadcast_threshold, None),
)


def fleet_aggregate(params: FleetParams) -> int:
    """Daily broadcast read volume: workers x build bytes x queries x fraction.

    Exact integer arithmetic; the fraction is taken at its decimal
    face value, so 0.20 is exactly one fifth.
    """
    # Fractions like 1/3 of an odd count cannot land on a whole byte;
    # int() rounds down and stays conservative.
    return int(params.workers * params.build_bytes * params.queries_per_day
               * exact_fraction(params.broadcast_fraction))


def fleet_api_calls(bytes_per_day: int, request_bytes: int) -> int:
    """Requests per day needed to move a byte volume at a given request size."""
    if bytes_per_day < 0:
        raise ValueError(f"bytes per day must be >= 0, got {bytes_per_day}")
    if request_bytes <= 0:
        raise ValueError(f"request bytes must be > 0, got {request_bytes}")
    return ceil_div(bytes_per_day, request_bytes)


@dataclass(frozen=True)
class FleetScanComparison:
    """Daily fleet-level request and byte totals, pushdown vs. full scan."""

    pushdown_bytes: int
    pushdown_requests: int
    full_scan_bytes: int
    full_scan_requests: int


def fleet_scan_projection(
    daily_bytes: int,
    avg_request_bytes: int,
    inflation: float | int | Fraction,
    page_bytes: int,
) -> FleetScanComparison:
    """Fleet-level projection of scan traffic with and without pushdown.

    With pushdown the fleet moves ``daily_bytes`` in reads averaging
    ``avg_request_bytes``. Without it, scans read ``inflation`` times
    as many bytes, but in full pages, so requests are counted at
    ``page_bytes`` apiece. The full-scan bytes are rounded down, as in
    ``fleet_aggregate``, and then the requests up.
    """
    if daily_bytes <= 0:
        raise ValueError(f"daily bytes must be > 0, got {daily_bytes}")
    if avg_request_bytes <= 0:
        raise ValueError(f"average request bytes must be > 0, got {avg_request_bytes}")
    if page_bytes <= 0:
        raise ValueError(f"page bytes must be > 0, got {page_bytes}")
    factor = exact_fraction(inflation)
    if factor <= 0:
        raise ValueError(f"inflation factor must be > 0, got {inflation}")
    full_bytes = int(factor * daily_bytes)
    return FleetScanComparison(
        pushdown_bytes=daily_bytes,
        pushdown_requests=ceil_div(daily_bytes, avg_request_bytes),
        full_scan_bytes=full_bytes,
        full_scan_requests=ceil_div(full_bytes, page_bytes),
    )
