"""Byte-unit parsing and numeric helpers."""

from fractions import Fraction

import pytest

from iocost.units import KB, MB, GB, TB, PB, ceil_div, exact_fraction, format_bytes, parse_bytes


@pytest.mark.parametrize(
    "text,expected",
    [
        ("64KB", 64_000),
        ("1.5MB", 1_500_000),
        ("10kb", 10_000),
        ("2 GB", 2 * GB),
        ("10PB", 10 * PB),
        ("3TB", 3 * TB),
        ("1048576", 1_048_576),
        ("100B", 100),
        ("0", 0),
        ("1e21", 10**21),
        ("1000000PB", 10**21),
    ],
)
def test_parse_bytes(text, expected):
    assert parse_bytes(text) == expected


def test_parse_bytes_accepts_ints():
    assert parse_bytes(12345) == 12345
    assert parse_bytes(10**21) == 10**21


@pytest.mark.parametrize(
    "bad",
    ["abc", "", "KB", "-5KB", "1.5B", "1.0001KB", -3,
     "inf", "-inf", "Infinity", "nan", "1e400", "1e22", 10**21 + 1],
)
def test_parse_bytes_rejects(bad):
    with pytest.raises(ValueError):
        parse_bytes(bad)


def test_units_are_decimal():
    assert KB == 10**3 and MB == 10**6 and GB == 10**9
    assert TB == 10**12 and PB == 10**15


@pytest.mark.parametrize(
    "n,expected",
    [
        (2 * PB, "2PB"),
        (1_500, "1.50KB"),
        (999, "999B"),
        (10**6, "1MB"),
        (0, "0B"),
    ],
)
def test_format_bytes(n, expected):
    assert format_bytes(n) == expected


def test_ceil_div():
    assert ceil_div(10, 3) == 4
    assert ceil_div(9, 3) == 3
    assert ceil_div(0, 5) == 0
    with pytest.raises(ValueError):
        ceil_div(1, 0)
    with pytest.raises(ValueError):
        ceil_div(-1, 2)


def test_exact_fraction_decimal_semantics():
    # 0.2 must mean exactly one fifth, not the nearest binary float
    assert exact_fraction(0.2) == Fraction(1, 5)
    assert exact_fraction(0.995) == Fraction(199, 200)
    assert exact_fraction(3) == Fraction(3)
    assert exact_fraction(Fraction(7, 9)) == Fraction(7, 9)
