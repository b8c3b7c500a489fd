"""Broadcast vs shuffle join I/O arithmetic."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from iocost.joinplan import (
    FleetParams,
    JoinSpec,
    fleet_aggregate,
    fleet_api_calls,
    plan_join,
    waste_fraction,
)
from iocost.units import GB, KB, MB, PB


def test_single_worker_broadcast_degenerates_to_shuffle():
    spec = JoinSpec(build_bytes=MB, probe_bytes=5 * MB, workers=1, strategy="broadcast")
    plan = plan_join(spec, KB)
    shuffled = plan_join(replace(spec, strategy="shuffle"), KB)
    assert plan.storage_bytes == shuffled.storage_bytes == 6 * MB
    assert plan.duplicated_bytes == 0


def test_broadcast_fleet_reads():
    spec = JoinSpec(build_bytes=100 * MB, probe_bytes=0, workers=200, strategy="broadcast")
    plan = plan_join(spec, MB)
    assert plan.storage_bytes == 20 * GB
    assert plan.duplicated_bytes == 19_900_000_000  # 19.9 GB
    assert plan.requests == 20_000
    assert plan.network_bytes == 0


def test_shuffle_reads_each_table_once():
    spec = JoinSpec(build_bytes=100 * MB, probe_bytes=GB, workers=200, strategy="shuffle")
    plan = plan_join(spec, MB)
    assert plan.storage_bytes == 100 * MB + GB
    assert plan.duplicated_bytes == 0
    assert plan.network_bytes == 100 * MB + GB


def test_auto_threshold_is_inclusive():
    at = JoinSpec(build_bytes=100 * MB, probe_bytes=0, workers=4, strategy="auto")
    assert plan_join(at, MB).strategy == "broadcast"
    over = JoinSpec(build_bytes=100 * MB + 1, probe_bytes=0, workers=4, strategy="auto")
    assert plan_join(over, MB).strategy == "shuffle"


def test_auto_matches_explicit_choice():
    rng = random.Random(55)
    for _ in range(100):
        spec = JoinSpec(
            build_bytes=rng.randint(0, 200 * MB),
            probe_bytes=rng.randint(0, GB),
            workers=rng.randint(1, 500),
            strategy="auto",
        )
        auto = plan_join(spec, KB)
        explicit = plan_join(replace(spec, strategy=auto.strategy), KB)
        assert auto == explicit


def test_broadcast_dominance_property():
    rng = random.Random(66)
    for _ in range(200):
        build = rng.randint(0, 10 * GB)
        probe = rng.randint(0, 10 * GB)
        workers = rng.randint(1, 1000)
        b = plan_join(JoinSpec(build, probe, workers, "broadcast"), MB)
        s = plan_join(JoinSpec(build, probe, workers, "shuffle"), MB)
        assert b.storage_bytes >= s.storage_bytes
        if workers == 1 or build == 0:
            assert b.storage_bytes == s.storage_bytes
        else:
            assert b.storage_bytes > s.storage_bytes
        assert b.duplicated_bytes == (workers - 1) * build


def test_requests_use_ceiling_division():
    plan = plan_join(JoinSpec(10, 1, 1, "shuffle"), 4)
    assert plan.storage_bytes == 11
    assert plan.requests == 3


def test_join_validation():
    with pytest.raises(ValueError):
        JoinSpec(-1, 0, 1)
    with pytest.raises(ValueError):
        JoinSpec(0, -1, 1)
    with pytest.raises(ValueError):
        JoinSpec(0, 0, 0)
    with pytest.raises(ValueError):
        JoinSpec(0, 0, 1, strategy="merge")
    with pytest.raises(ValueError):
        JoinSpec(0, 0, 1, broadcast_threshold=-1)
    with pytest.raises(ValueError):
        plan_join(JoinSpec(0, 0, 1), 0)


def test_waste_fraction_exact():
    assert waste_fraction(200) == Fraction(199, 200)
    assert float(waste_fraction(200)) == 0.995
    assert waste_fraction(1) == 0
    assert waste_fraction(4) == Fraction(3, 4)
    with pytest.raises(ValueError):
        waste_fraction(0)


def test_waste_fraction_monotone_in_bounds():
    values = [waste_fraction(n) for n in range(1, 50)]
    assert all(0 <= v < 1 for v in values)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_fleet_aggregate_headline():
    params = FleetParams(500_000, 0.20, 200, 100 * MB)
    assert fleet_aggregate(params) == 2 * PB == 2 * 10**15


def test_fleet_aggregate_cases():
    assert fleet_aggregate(FleetParams(500_000, 0.0, 200, 100 * MB)) == 0
    assert fleet_aggregate(FleetParams(500_000, 0.20, 200, 20 * MB)) == 4 * 10**14
    assert fleet_aggregate(FleetParams(0, 1.0, 10, MB)) == 0


def test_fleet_aggregate_linearity():
    rng = random.Random(88)
    for _ in range(50):
        # keep query count a multiple of 100 so the volume is a whole
        # number of bytes and linearity is exact
        params = FleetParams(
            queries_per_day=100 * rng.randint(0, 10**4),
            broadcast_fraction=Fraction(rng.randint(0, 100), 100),
            workers=rng.randint(1, 500),
            build_bytes=rng.randint(0, GB),
        )
        base = fleet_aggregate(params)
        assert fleet_aggregate(replace(params, queries_per_day=2 * params.queries_per_day)) == 2 * base
        assert fleet_aggregate(replace(params, workers=2 * params.workers)) == 2 * base
        assert fleet_aggregate(replace(params, build_bytes=2 * params.build_bytes)) == 2 * base


def test_fleet_aggregate_rounds_down_partial_bytes():
    assert fleet_aggregate(FleetParams(1, Fraction(1, 3), 1, 1)) == 0
    assert fleet_aggregate(FleetParams(2, Fraction(1, 3), 1, 1)) == 0
    assert fleet_aggregate(FleetParams(3, Fraction(1, 3), 1, 1)) == 1


def test_fleet_params_validation():
    with pytest.raises(ValueError):
        FleetParams(1, 1.5, 1, 1)
    with pytest.raises(ValueError):
        FleetParams(1, -0.1, 1, 1)
    with pytest.raises(ValueError):
        FleetParams(-1, 0.5, 1, 1)
    with pytest.raises(ValueError):
        FleetParams(1, 0.5, 0, 1)
    with pytest.raises(ValueError):
        FleetParams(1, 0.5, 1, -1)


def test_fleet_api_calls():
    assert fleet_api_calls(2 * PB, 10 * KB) == 2 * 10**11
    assert fleet_api_calls(2 * PB, MB) == 2 * 10**9
    assert fleet_api_calls(0, KB) == 0
    assert fleet_api_calls(KB + 1, KB) == 2
    with pytest.raises(ValueError):
        fleet_api_calls(KB, 0)
    with pytest.raises(ValueError):
        fleet_api_calls(-1, KB)


def test_fleet_aggregate_exceeds_ten_billion_calls_a_day():
    # at 10 KB requests the broadcast volume alone is 2x10^11 calls
    volume = fleet_aggregate(FleetParams(500_000, 0.20, 200, 100 * MB))
    assert fleet_api_calls(volume, 10 * KB) > 10**10