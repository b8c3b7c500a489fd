"""Byte-unit parsing and numeric helpers."""

from fractions import Fraction

import pytest

from iocost.units import (
    GB, KB, MB, PB, REQUIRED, TB, FieldError, ceil_div, check_fields, exact_fraction,
    parse_bytes,
)


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
        ("1.000000000000000000000000000000KB", 1000),
        ("0e-999999999", 0),
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
     "inf", "-inf", "Infinity", "nan", "1e400", "1e22", 10**21 + 1,
     "0.99999999999999999999999999999", "1.00000000000000000000000000001", "1e-999999999"],
)
def test_parse_bytes_rejects(bad):
    with pytest.raises(ValueError):
        parse_bytes(bad)


def test_units_are_decimal():
    assert KB == 10**3 and MB == 10**6 and GB == 10**9
    assert TB == 10**12 and PB == 10**15


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


ITEM = (("name", "str", REQUIRED, None), ("size", "bytes", REQUIRED, 1))
TABLE = (
    ("count", "int", REQUIRED, 0),
    ("share", "number", 0.5, None),
    ("on", "bool", True, None),
    ("mode", ("fast", "slow"), "fast", None),
    ("tags", "strs", (), None),
    ("note", "str", None, None),
    ("items", [ITEM], (), 1),
)


def test_check_fields_fills_defaults_and_converts():
    values = check_fields({"count": 3, "note": None, "items": [{"name": "a", "size": "1KB"}]},
                          TABLE, "thing")
    assert values == {"count": 3, "share": 0.5, "on": True, "mode": "fast", "tags": (),
                      "note": None, "items": [{"name": "a", "size": 1000}]}


@pytest.mark.parametrize(
    "obj,message",
    [
        ([], "thing: must be an object, got []"),
        ({}, "thing: missing field 'count'"),
        ({"count": 1, "cuont": 2}, "thing field 'cuont': unknown fields are rejected"),
        ({"count": True}, "thing field 'count': must be an integer, got True"),
        ({"count": -1}, "thing field 'count': must be >= 0, got -1"),
        ({"count": None}, "thing field 'count': must be an integer, got None"),
        ({"count": 1, "share": float("nan")}, "thing field 'share': must be a finite number"),
        ({"count": 1, "share": None}, "thing field 'share': must be a finite number"),
        ({"count": 1, "on": 0}, "thing field 'on': must be a boolean"),
        ({"count": 1, "mode": "warp"}, "thing field 'mode': must be one of ['fast', 'slow']"),
        ({"count": 1, "tags": ["a", 1]}, "thing field 'tags': must be an array of strings"),
        ({"count": 1, "note": ""}, "thing field 'note': must be a non-empty string"),
        ({"count": 1, "items": []}, "thing field 'items': must hold at least 1 item(s), got 0"),
        ({"count": 1, "items": {}}, "thing field 'items': must be an array of objects"),
        ({"count": 1, "items": [{"name": "a", "size": 1}, {"name": "b"}]},
         "thing field 'items[1]': missing field 'size'"),
        ({"count": 1, "items": [{"name": "a", "size": "1XB"}]},
         "thing field 'items[0].size': not a byte count: '1XB'"),
        ({"count": 1, "items": [{"name": "a", "size": 0}]},
         "thing field 'items[0].size': must be >= 1, got 0"),
        ({"count": 1, "items": [{"name": "a", "size": 1, "sise": 1}]},
         "thing field 'items[0].sise': unknown fields are rejected"),
    ],
)
def test_check_fields_errors_name_the_path(obj, message):
    with pytest.raises(FieldError) as excinfo:
        check_fields(obj, TABLE, "thing")
    assert str(excinfo.value).startswith(message)
