"""Byte units and small numeric helpers shared across the package.

All byte quantities use decimal (SI) units, so 1 KB = 1000 bytes and
1 PB = 10**15 bytes. Cloud pricing sheets and the capacity figures we
reproduce are quoted in decimal units, and keeping a single convention
avoids a whole class of off-by-2.4% bugs.
"""

from __future__ import annotations

import json
from decimal import Decimal, InvalidOperation
from fractions import Fraction

KB = 10**3
MB = 10**6
GB = 10**9
TB = 10**12
PB = 10**15

# Largest byte count any field accepts (1 ZB): far above every real
# quantity here, and small enough that a hostile exponent such as
# "1e400" is refused before it becomes an integer.
MAX_BYTES = 10**21

_SUFFIXES = {
    "KB": KB,
    "MB": MB,
    "GB": GB,
    "TB": TB,
    "PB": PB,
    "B": 1,
}


def parse_bytes(text: str | int) -> int:
    """Parse a byte count such as ``"64KB"``, ``"1.5MB"`` or ``"1048576"``.

    Suffixes are decimal and case-insensitive. Fractional values are
    allowed as long as the result is a whole number of bytes. Counts
    above ``MAX_BYTES`` are rejected.
    """
    if isinstance(text, bool):
        raise ValueError(f"not a byte count: {text!r}")
    if isinstance(text, int):
        if text < 0:
            raise ValueError(f"byte count must be >= 0, got {text}")
        if text > MAX_BYTES:
            raise ValueError(f"byte count must be <= 10**21, got {text}")
        return text
    raw = str(text).strip()
    s = raw.upper()
    multiplier = 1
    for suffix in ("KB", "MB", "GB", "TB", "PB", "B"):
        if s.endswith(suffix):
            multiplier = _SUFFIXES[suffix]
            s = s[: -len(suffix)].strip()
            break
    if not s:
        raise ValueError(f"not a byte count: {raw!r}")
    try:
        number = Decimal(s)
    except InvalidOperation:
        raise ValueError(f"not a byte count: {raw!r}") from None
    if not number.is_finite():
        raise ValueError(f"not a byte count: {raw!r}")
    # range checks come before the multiplication and int(), so a huge
    # exponent neither overflows the decimal context nor builds a huge int
    if number < 0:
        raise ValueError(f"byte count must be >= 0, got {raw!r}")
    if number > MAX_BYTES // multiplier:
        raise ValueError(f"byte count must be <= 10**21, got {raw!r}")
    value = number * multiplier
    if value != value.to_integral_value():
        raise ValueError(f"byte count is not a whole number of bytes: {raw!r}")
    return int(value)


def format_bytes(n: int) -> str:
    """Render a byte count with the largest decimal suffix that fits cleanly."""
    if n < 0:
        return "-" + format_bytes(-n)
    for suffix in ("PB", "TB", "GB", "MB", "KB"):
        unit = _SUFFIXES[suffix]
        if n >= unit:
            scaled = n / unit
            if n % unit == 0:
                return f"{n // unit}{suffix}"
            return f"{scaled:.2f}{suffix}"
    return f"{n}B"


def exact_fraction(value: int | float | str | Fraction) -> Fraction:
    """Convert ``value`` to an exact rational.

    Floats are converted through their shortest decimal repr, so 0.2
    becomes exactly 1/5 rather than the nearest binary float. Scenario
    inputs are written as decimals and should behave like decimals.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


def ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling division on non-negative integers."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be >= 0, got {numerator}")
    return -(-numerator // denominator)


def load_json(path: str, what: str):
    """Read one JSON document from ``path``.

    Malformed JSON raises ``ValueError`` naming ``what`` and the path.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{what} {path}: invalid JSON ({exc})") from None
