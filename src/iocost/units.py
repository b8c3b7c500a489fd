"""Byte units and small numeric helpers shared across the package.

All byte quantities use decimal (SI) units, so 1 KB = 1000 bytes and
1 PB = 10**15 bytes. Cloud pricing sheets and the capacity figures we
reproduce are quoted in decimal units, and keeping a single convention
avoids a whole class of off-by-2.4% bugs.
"""

from __future__ import annotations

import json
import math
import os
import reprlib
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

# Largest timestamp, offset, length and end offset a trace record or a
# scan plan may carry: the cache simulation expands byte ranges into
# int64 block indices, and a plan holds int64 offsets and lengths.
MAX_TRACE_INT = 2**63 - 1

# Tried in order, so "B", the end of every other suffix, comes last.
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

    Every value is read through its text, ``str(text)``, which must be
    ASCII without ``_``: an int takes a string's checks, and a bool is
    refused. Suffixes are decimal and case-insensitive. Fractional values
    are allowed as long as the result is a whole number of bytes. Counts
    above ``MAX_BYTES`` are rejected.
    """
    raw = str(text).strip()
    s = raw.upper()
    for suffix, multiplier in _SUFFIXES.items():
        if s.endswith(suffix):
            s = s[: -len(suffix)].strip()
            break
    else:
        multiplier = 1
    # Decimal also reads "1_000" and non-ASCII digits; a byte count holds neither.
    if not s or not raw.isascii() or "_" in raw:
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
    # The whole-number check is exact: the decimal context would round a
    # count with more than 28 significant digits first. A nonzero count
    # under 1e-15 is below one byte even in PB; refusing it here keeps an
    # exponent such as "1e-999999999" from building a huge denominator.
    if number and number.adjusted() < -15:
        raise ValueError(f"byte count is not a whole number of bytes: {raw!r}")
    numerator, denominator = number.as_integer_ratio()
    numerator *= multiplier
    if numerator % denominator:
        raise ValueError(f"byte count is not a whole number of bytes: {raw!r}")
    return numerator // denominator


def exact_fraction(value: int | float | str | Fraction) -> Fraction:
    """``value`` as an exact rational, read through its text: ``Fraction(str(value))``.

    A float's text is its shortest decimal repr, so 0.2 becomes exactly
    1/5 rather than the nearest binary float: scenario inputs are written
    as decimals and should behave like decimals. A bool is refused.
    """
    return Fraction(str(value))


def ceil_div(numerator: int, denominator: int) -> int:
    """Ceiling division on non-negative integers."""
    if denominator <= 0:
        raise ValueError(f"denominator must be positive, got {denominator}")
    if numerator < 0:
        raise ValueError(f"numerator must be >= 0, got {numerator}")
    return -(-numerator // denominator)


def regular_file(path: str, what: str) -> str:
    """``path`` if it names a regular file, else ``FileNotFoundError("<what> not found: <path>")``.

    A directory, a FIFO or a device is refused before it is opened, as
    reading one fails, blocks or never ends.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path


def load_json(path: str, what: str):
    """Read one JSON document from ``path``, a regular file (``regular_file``).

    Malformed, non-UTF-8 or too deeply nested JSON, or an integer past
    Python's digit limit, raises ``ValueError`` naming ``what`` and the
    path.
    """
    with open(regular_file(path, what), "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{what} {path}: invalid JSON ({exc})") from None
        except RecursionError:
            raise ValueError(f"{what} {path}: invalid JSON (nesting too deep)") from None


def _is_finite_number(v) -> bool:
    """An int or float that is a finite float: a huge int is refused, not left to overflow later."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int past the float range
        return False


# The default of a field table row whose key must be present.
REQUIRED = object()

_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "number": (_is_finite_number, "a finite number"),
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "str": (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    "strs": (lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
             "an array of strings"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "any": (lambda v: True, "any value"),
}


class FieldError(ValueError):
    """A field of a JSON input failed its check.

    ``path`` is the field's dotted path inside the ``noun`` being read,
    such as ``columns[1].page_bytes`` inside a layout; it is empty when
    the problem is the whole input.
    """

    def __init__(self, noun: str, path: str, problem: str):
        super().__init__(f"{noun} field {path!r}: {problem}" if path else f"{noun}: {problem}")
        self.path = path
        self.problem = problem


def _nested(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its errors reported as scenario field ``path``."""
    try:
        return build(*args, **kwargs)
    except FieldError as exc:
        raise FieldError("scenario", f"{path}.{exc.path}" if exc.path else path, exc.problem) from None
    except ValueError as exc:
        raise FieldError("scenario", path, str(exc)) from None


def check_fields(obj, table, noun: str, path: str = "") -> dict:
    """Check the JSON object ``obj`` against a field table; return values by key.

    Each row of ``table`` is ``(key, kind, default, minimum)``. Kinds:

    - ``"int"``, ``"number"`` (an int or float, finite as a float), ``"bool"``;
    - ``"bytes"``: anything ``parse_bytes`` accepts, returned as an int;
    - ``"str"``: a non-empty string; ``"strs"``: an array of strings;
    - ``"object"``: a JSON object, and ``"any"``: any value, each returned
      as is for the caller to check;
    - a tuple of strings: one of those strings;
    - ``[table]``: an array of objects, each checked against ``table``.

    A missing key takes ``default``, or fails when that is ``REQUIRED``;
    null counts as missing where the default is None. ``minimum`` bounds
    a number from below and an array's length. A key that is not in the
    table fails. Failures raise ``FieldError`` with the dotted path.
    """
    if not isinstance(obj, dict):
        raise FieldError(noun, path, f"must be an object, got {reprlib.repr(obj)}")
    known = [row[0] for row in table]
    for key in obj:
        if key not in known:
            raise FieldError(
                noun, f"{path}.{key}" if path else key,
                f"unknown fields are rejected (known: {', '.join(known)})",
            )
    values = {}
    for key, kind, default, minimum in table:
        value = obj.get(key)
        if value is None and (key not in obj or default is None):
            if default is REQUIRED:
                raise FieldError(noun, path, f"missing field {key!r}")
            values[key] = default
        else:
            values[key] = check_value(value, kind, noun, f"{path}.{key}" if path else key, minimum)
    return values


def check_value(value, kind, noun: str, path: str, minimum=None):
    """Check one JSON value against a kind of ``check_fields``; return it."""
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise FieldError(noun, path, f"must be an array of objects, got {reprlib.repr(value)}")
        value = [check_fields(item, kind[0], noun, f"{path}[{i}]") for i, item in enumerate(value)]
    elif isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise FieldError(noun, path, f"must be one of {list(kind)}, got {reprlib.repr(value)}")
    elif kind == "bytes":
        try:
            value = parse_bytes(value)
        except ValueError as exc:
            raise FieldError(noun, path, str(exc)) from None
    else:
        accepts, expected = _KINDS[kind]
        if not accepts(value):
            raise FieldError(noun, path, f"must be {expected}, got {reprlib.repr(value)}")
    if minimum is not None:
        if isinstance(value, list):
            if len(value) < minimum:
                raise FieldError(noun, path, f"must hold at least {minimum} item(s), got {len(value)}")
        elif value < minimum:
            raise FieldError(noun, path, f"must be >= {minimum}, got {value}")
    return value
