"""Property tests of the field tables behind every JSON input.

Each input below starts valid. Adding an unknown key, giving a field a
value of another JSON type, or dropping a required field must be
refused with a ValueError (exit 2 on the command line) whose message
names the field's dotted path, never with a TypeError, KeyError or
AttributeError.
"""

import copy
import io
import json
import os
import string
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iocost.cli import main
from iocost.columnar import layout_from_dict, query_from_dict
from iocost.pricing import pricebook_from_dict
from iocost.scenario import scenario_from_dict

LAYOUT = {
    "table": "events",
    "rows": 8,
    "columns": [
        {"name": "A", "page_bytes": 8, "value_bytes": 4},
        {"name": "B", "page_bytes": "8B", "value_bytes": 4},
    ],
}
QUERY = {"select": ["B"], "where": [{"col": "A", "op": ">=", "lit": 10}], "pushdown": True}
SCENARIO = {
    "price_book": "s3-standard",
    "seed": 3,
    "annual": False,
    "workload": {"synthesize": {
        "records": 50, "anchors": [["10KB", 0.5], ["1MB", 1.0]], "min_bytes": 100,
        "objects": 20, "zipf_exponent": 1.2, "duration_ms": 1000,
    }},
    "scan": {
        "layout": LAYOUT,
        "query": QUERY,
        "data": {"A": [10, 20, 5, 30, 25, 12, 40, 8], "B": [7, 10, 3, 9, 10, 2, 10, 5]},
        "coalesce_gap": "1KB",
    },
    "scan_fleet": {
        "daily_bytes": "10PB", "avg_request_bytes": "10KB", "inflation": 5,
        "page_bytes": "1MB", "pushdown": True,
    },
    "join": {
        "queries_per_day": 500, "broadcast_fraction": 0.2, "workers": 20,
        "build_bytes": "100MB", "probe_bytes": "1GB", "request_bytes": "10KB",
        "strategy": "auto", "broadcast_threshold": "50MB",
    },
    "cache": {"capacity_bytes": "1MB", "block_bytes": "1KB"},
}
BOOK = {
    "id": "flat",
    "classes": [
        {"class": "read", "label": "Reads", "kinds": ["get"], "nanousd_per_request": 3},
        {"class": "write", "kinds": ["put"], "nanousd_per_request": 5},
    ],
}
TALLY = {"counts": {"get": 10}, "bytes": {"get": 100}}

# Objects under these keys map data (column names, request kinds) to
# values; their keys are not fields.
MAPS = {"data", "counts", "bytes"}


def _run_main(argv, name: str, doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv + [path])
    return code, err.getvalue()


def _library(parse):
    def check(doc):
        try:
            parse(doc)
        except ValueError as exc:
            return str(exc)
        return None
    return check


def _scenario(doc):
    message = _library(scenario_from_dict)(copy.deepcopy(doc))
    if message is not None:
        code, err = _run_main(["scenario", "run"], "s.json", doc)
        assert code == 2 and message in err
    return message


def _tally(doc):
    code, err = _run_main(["price", "--book", "s3-standard", "--tally"], "t.json", doc)
    assert code in (0, 2), err
    return err if code == 2 else None


# name -> (valid document, check returning the refusal message or None,
#          dotted paths of the fields it cannot do without)
CASES = {
    "scenario": (SCENARIO, _scenario, {
        "price_book", "workload", "workload.synthesize",
        "scan.layout", "scan.query", "scan.layout.table", "scan.layout.rows",
        "scan.layout.columns", "scan.query.where[0].col", "scan.query.where[0].op",
        "scan.query.where[0].lit",
        *(f"scan.layout.columns[{i}].{k}" for i in (0, 1)
          for k in ("name", "page_bytes", "value_bytes")),
        *(f"scan_fleet.{k}" for k in ("daily_bytes", "avg_request_bytes", "inflation",
                                      "page_bytes")),
        *(f"join.{k}" for k in ("queries_per_day", "broadcast_fraction", "workers",
                                "build_bytes", "request_bytes")),
        "cache.capacity_bytes",
    }),
    "layout": (LAYOUT, _library(layout_from_dict), {
        "table", "rows", "columns",
        *(f"columns[{i}].{k}" for i in (0, 1) for k in ("name", "page_bytes", "value_bytes")),
    }),
    "query": (QUERY, _library(query_from_dict), {"where[0].col", "where[0].op", "where[0].lit"}),
    "price book": (BOOK, _library(pricebook_from_dict), {
        "id", "classes",
        *(f"classes[{i}].{k}" for i in (0, 1) for k in ("class", "kinds", "nanousd_per_request")),
    }),
    "tally": (TALLY, _tally, {"counts"}),
}


def _shape(doc):
    """Paths of every object and of every field in ``doc``."""
    objects, fields = [], []

    def walk(node, path):
        if isinstance(node, dict) and not (path and path[-1] in MAPS):
            objects.append(path)
            for key, value in node.items():
                fields.append(path + (key,))
                walk(value, path + (key,))
        elif isinstance(node, list):
            for i, item in enumerate(node):
                if isinstance(item, dict):
                    walk(item, path + (i,))

    walk(doc, ())
    return objects, fields


def _dotted(path) -> str:
    out = ""
    for part in path:
        out += f"[{part}]" if isinstance(part, int) else (f".{part}" if out else part)
    return out


def _at(doc, path):
    for part in path:
        doc = doc[part]
    return doc


KEYS = st.text(alphabet=string.ascii_letters + string.digits + "_- ", min_size=1, max_size=12)
SMALL_LISTS = st.lists(st.integers(), max_size=3)
SMALL_DICTS = st.dictionaries(KEYS, st.integers(), max_size=2)


def _other_type(value):
    """Values of a JSON type other than ``value``'s (null aside: it means absent)."""
    if isinstance(value, bool):
        return st.one_of(st.integers(), st.text(), SMALL_LISTS, SMALL_DICTS)
    if isinstance(value, (int, float, str)):
        # numbers and strings stand in for each other in byte fields
        return st.one_of(st.booleans(), SMALL_LISTS, SMALL_DICTS)
    if isinstance(value, list):
        return st.one_of(st.booleans(), st.integers(), st.text(), SMALL_DICTS)
    # a string in place of an object would be read as a file path
    return st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False), SMALL_LISTS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_valid_input_passes(case):
    doc, check, _ = CASES[case]
    assert check(copy.deepcopy(doc)) is None


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_unknown_key_is_refused_by_path(case, data):
    doc, check, _ = CASES[case]
    where = data.draw(st.sampled_from(_shape(doc)[0]))
    key = data.draw(KEYS.filter(lambda k: k not in _at(doc, where)))
    bad = copy.deepcopy(doc)
    _at(bad, where)[key] = 1
    message = check(bad)
    assert message is not None and repr(_dotted(where + (key,))) in message


@pytest.mark.parametrize("case", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_value_of_another_type_is_refused_by_path(case, data):
    doc, check, _ = CASES[case]
    path = data.draw(st.sampled_from(_shape(doc)[1]))
    bad = copy.deepcopy(doc)
    _at(bad, path[:-1])[path[-1]] = data.draw(_other_type(_at(doc, path)))
    message = check(bad)
    assert message is not None and _dotted(path) in message


@pytest.mark.parametrize(
    "case,path",
    [(case, path) for case in sorted(CASES) for path in _shape(CASES[case][0])[1]],
    ids=lambda v: _dotted(v) if isinstance(v, tuple) else v,
)
def test_dropping_a_field(case, path):
    doc, check, required = CASES[case]
    bad = copy.deepcopy(doc)
    del _at(bad, path[:-1])[path[-1]]
    message = check(bad)
    if _dotted(path) not in required:
        assert message is None
    else:
        assert message is not None
        assert _dotted(path[:-1]) in message and repr(path[-1]) in message
