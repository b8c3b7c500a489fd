"""Trace ingestion, workload statistics, and seeded synthesis."""

import hashlib
import json
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from heapq import nlargest
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iocost import tracemodel
from iocost.tracemodel import (
    MAX_TRACE_INT,
    RANGED_KINDS,
    TRACE_KINDS,
    AccessRecord,
    ReuseStats,
    SizeCdf,
    SynthSpec,
    Trace,
    parse_trace,
    popularity_share,
    read_trace,
    reuse_intervals,
    size_cdf,
    synthesize_trace,
    trace_lines,
    write_trace,
)
from iocost.units import KB, MB


def _line(ts, obj="o1", off=0, length=1000, kind="get"):
    return json.dumps({"ts_ms": ts, "obj": obj, "off": off, "len": length, "kind": kind})


def test_parse_single_get():
    trace = parse_trace([_line(5)])
    assert len(trace) == 1
    rec = trace.gets()[0]
    assert (rec.ts_ms, rec.obj, rec.off, rec.length, rec.kind) == (5, "o1", 0, 1000, "get")


def test_parse_sorts_by_timestamp():
    lines = [_line(30), _line(10), _line(20)]
    trace = parse_trace(lines)
    got = trace.ts_ms.tolist()
    assert got == sorted(got) == [10, 20, 30]


def test_parse_empty_is_an_error():
    with pytest.raises(ValueError, match="empty trace"):
        parse_trace([])
    with pytest.raises(ValueError, match="empty trace"):
        parse_trace(["", "   "])


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse_trace([_line(1), "{not json"])
    with pytest.raises(ValueError, match="line 1.*'obj'"):
        parse_trace([json.dumps({"ts_ms": 1, "kind": "get"})])
    with pytest.raises(ValueError, match="line 3.*length"):
        parse_trace([_line(1), _line(2), _line(3, length=-4)])
    with pytest.raises(ValueError, match="line 1.*kind"):
        parse_trace([_line(1, kind="mystery")])
    with pytest.raises(ValueError, match="line 2: unknown field 'offset'"):
        parse_trace([_line(0), json.dumps({"ts_ms": 1, "obj": "a", "kind": "head", "offset": 5})])
    with pytest.raises(ValueError, match="line 1: unknown field 'lenght'"):
        parse_trace([json.dumps({**json.loads(_line(1)), "lenght": 99})])
    with pytest.raises(ValueError, match="line 1: record must be a JSON object"):
        parse_trace(["[1]"])


def test_non_ranged_kinds_default_off_len():
    trace = parse_trace([json.dumps({"ts_ms": 0, "obj": "b", "kind": "list"})])
    assert trace.off.tolist() == trace.length.tolist() == [0]


def test_ranged_kinds_need_positive_length():
    with pytest.raises(ValueError, match="line 1: length"):
        parse_trace([_line(0, "x", 0, 0, "get")])
    with pytest.raises(ValueError, match="line 1: length"):
        parse_trace([_line(0, "x", 0, -1, "put")])
    parse_trace([_line(0, "x", 0, 0, "head")])  # fine for non-ranged kinds


@pytest.mark.parametrize(
    "ts,off,length,field",
    [
        (2**63, 0, 1, "timestamp"),
        (0, 2**63, 1, "offset"),
        (0, 0, 2**63, "offset"),
        (0, 2**62, 2**62, "offset"),
        (0, 2**63 - 1, 1, "offset"),
    ],
)
def test_record_integers_fit_int64(ts, off, length, field):
    with pytest.raises(ValueError, match=f"line 1: {field}.*2\\*\\*63 - 1"):
        parse_trace([_line(ts, "x", off, length, "get")])


def test_record_accepts_the_int64_limit():
    trace = parse_trace([
        _line(2**63 - 1, "x", 2**63 - 2, 1, "get"),
        _line(0, "x", 0, 2**63 - 1, "get"),
        _line(0, "x", 2**63 - 1, 0, "head"),
    ])
    assert trace.ts_ms.tolist() == [0, 0, 2**63 - 1]
    assert trace.off.tolist() == [0, 2**63 - 1, 2**63 - 2]
    assert trace.length.tolist() == [2**63 - 1, 0, 1]


def test_write_read_roundtrip(tmp_path):
    trace = parse_trace([_line(2, "a"), _line(1, "b", off=512, length=77)])
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    again = read_trace(str(path))
    assert again.gets() == trace.gets()
    # canonical serialization is stable
    assert list(trace_lines(again)) == list(trace_lines(trace))


def _lines_oracle(trace):
    """The canonical lines, one f-string a record: the writer before the bulk encoder."""
    names = [json.dumps(name) for name in trace.objects]
    columns = (trace.ts_ms, trace.obj, trace.off, trace.length, trace.kind)
    for t, o, a, n, k in zip(*(c.tolist() for c in columns)):
        yield f'{{"ts_ms":{t},"obj":{names[o]},"off":{a},"len":{n},"kind":"{TRACE_KINDS[k]}"}}'


# The writer checks no row, so any int64 and any non-empty id will do.
_written_ints = st.sampled_from([0, 9, 10, MAX_TRACE_INT]) | st.integers(0, MAX_TRACE_INT)
_written_ids = st.one_of(
    st.sampled_from(['"', "\\", "\x7f", "\x00", "\n", "\x1f", "é", "\ud800", "o1"]), st.text(min_size=1, max_size=4)
)


@given(
    st.lists(st.tuples(_written_ints, _written_ids, _written_ints, _written_ints, st.sampled_from(TRACE_KINDS)),
             max_size=12),
    st.integers(1, 3),
)
@example(rows=[], chunk_rows=1)  # an empty trace writes an empty file
def test_write_trace_equals_the_per_line_oracle_property(tmp_path_factory, rows, chunk_rows):
    trace = Trace(rows)
    path = tmp_path_factory.getbasetemp() / "written.jsonl"
    # Chunks of one to three rows put every row next to a chunk boundary.
    with mock.patch.object(tracemodel, "_WRITE_ROWS", chunk_rows):
        write_trace(trace, str(path))
        assert list(trace_lines(trace)) == list(_lines_oracle(trace))
    assert path.read_bytes() == "".join(line + "\n" for line in _lines_oracle(trace)).encode()


def test_written_ids_read_back_in_bulk_unless_escaped(tmp_path):
    # Every character json.dumps writes as itself; DEL it escapes, though the bulk reader takes it raw.
    plain = "".join(chr(c) for c in range(0x20, 0x7F) if chr(c) not in '"\\')
    path = tmp_path / "t.jsonl"
    # The last id is longer than the rest of its line, which ends the chunk.
    trace = Trace([(1, plain, 0, 5, "get"), (2, "o1", 7, 0, "head"), (3, "o1", 9, 1, "put"),
                   (4, "z" * 100, 0, 1, "get")])
    write_trace(trace, str(path))
    _assert_same_trace(tracemodel._read_canonical(str(path)), trace)
    trace = Trace([(1, "a\x7fb", 0, 5, "get"), (2, "o1", 0, 1, "get")])
    write_trace(trace, str(path))
    assert '"a\\u007fb"' in path.read_text()
    assert tracemodel._read_canonical(str(path)) is None
    _assert_same_trace(read_trace(str(path)), trace)


def _write_peak(trace, path):
    """The tracemalloc peak of ``write_trace(trace, path)``, in bytes."""
    tracemalloc.start()
    try:
        write_trace(trace, str(path))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_trace_memory_is_bounded(tmp_path):
    path = tmp_path / "t.jsonl"
    # The per-line writer peaked at 23.5 MB here, in Python ints of whole columns.
    trace = synthesize_trace(SynthSpec(records=200_000), seed=1)
    assert _write_peak(trace, path) < 8 * MB
    # One 10**5-byte id among 2,000 short ones widens only its own chunk,
    # of 10 rows: 2**14 rows of it would take 1.6 GB, and every chunk
    # padded to it 201 chunks.
    trace = Trace([(i, f"o{i}", 0, 1, "get") for i in range(2000)] + [(0, "x" * 10**5, 0, 1, "get")])
    assert _write_peak(trace, path) < 8 * MB
    assert path.read_text() == "".join(line + "\n" for line in _lines_oracle(trace))
    assert len(list(tracemodel._encoded(trace))) == 2


def test_bulk_read_memory_is_bounded(tmp_path):
    # One 10**6-byte id among 10**4 short lines: id cells a line as wide
    # as the widest id would take 10 GB.
    lines = [f'{{"ts_ms":{i},"obj":"o{i}","off":0,"len":1,"kind":"get"}}\n' for i in range(10**4)]
    lines.insert(5000, '{"ts_ms":1,"obj":"' + "x" * 10**6 + '","off":0,"len":1,"kind":"get"}\n')
    path = tmp_path / "t.jsonl"
    path.write_text("".join(lines))
    tracemalloc.start()
    try:
        trace = tracemodel._read_canonical(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 10**4 + 1 and "x" * 10**6 in trace.objects
    assert peak < 8 * MB


def _written_twice(lines):
    once = list(trace_lines(parse_trace(lines)))
    assert list(trace_lines(parse_trace(once))) == once
    return once


@given(
    st.integers(1, 300), st.integers(1, 100), st.integers(1, 10**6), st.integers(0, 2**32 - 1)
)
def test_synthesized_trace_round_trip_property(records, universe, duration_ms, seed):
    # a short duration ties timestamps; a synthesized trace is already canonical
    spec = SynthSpec(records=records, object_universe=universe, duration_ms=duration_ms)
    lines = list(trace_lines(synthesize_trace(spec, seed)))
    assert _written_twice(lines) == lines


@given(
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.text(min_size=1, max_size=4),
            st.integers(0, 10**12),
            st.integers(1, 10**12),
            st.sampled_from(TRACE_KINDS),
            st.booleans(),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_ingested_trace_round_trip_property(rows):
    # few timestamps, so lines arrive unsorted and tied; keys in any order
    lines = [
        json.dumps({"ts_ms": ts, "obj": obj, "off": off, "len": length, "kind": kind}, sort_keys=by_key)
        for ts, obj, off, length, kind, by_key in rows
    ]
    ordered = sorted(rows, key=lambda row: row[0])  # stable: ties keep their input order
    assert _written_twice(lines) == [
        json.dumps({"ts_ms": ts, "obj": obj, "off": off, "len": length, "kind": kind}, separators=(",", ":"))
        for ts, obj, off, length, kind, _ in ordered
    ]


_COLUMNS = ("ts_ms", "obj", "off", "length", "kind")


def _assert_same_trace(got, want):
    assert got.objects == want.objects
    for name in _COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tolist() == b.tolist(), name


def _line_path(path):
    """The trace and error of the line path over a file read as UTF-8 text."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return Trace(tracemodel._checked_rows(fh)), None
        except ValueError as exc:
            return None, str(exc)


@st.composite
def _valid_record(draw):
    kind = draw(st.sampled_from(TRACE_KINDS))
    least = 1 if kind in RANGED_KINDS else 0
    ts = draw(st.integers(0, 5) | st.just(MAX_TRACE_INT) | st.integers(0, MAX_TRACE_INT))
    off = min(draw(st.integers(0, 10**6) | st.just(MAX_TRACE_INT)), MAX_TRACE_INT - least)
    room = MAX_TRACE_INT - off
    length = draw(st.integers(least, min(room, least + 10**6)) | st.just(room))
    # Ids repeat, need escapes (quotes, backslashes, controls, non-ASCII) or are lone surrogates.
    obj = draw(st.sampled_from(["o1", "o2", "x/y", "\x7f"]) | st.text(min_size=1, max_size=3)
               | st.sampled_from(["\ud800", "a\udfff"]))
    return ts, obj, off, length, kind


def _render(record, style):
    ts, obj, off, length, kind = record
    fields = {"ts_ms": ts, "obj": obj, "off": off, "len": length, "kind": kind}
    compact = json.dumps(fields, separators=(",", ":"))
    return {
        "canonical": compact,  # escaped where the id needs it
        "spaced": json.dumps(fields),
        "sorted": json.dumps(fields, sort_keys=True, separators=(",", ":")),
        # Raw UTF-8, except a lone surrogate, which has no UTF-8 form.
        "raw": json.dumps(fields, ensure_ascii=not obj.isprintable(), separators=(",", ":")),
        "duplicate": '{"kind":"head",' + compact[1:],  # the last "kind" wins
    }[style]


_STYLES = ("canonical", "canonical", "canonical", "spaced", "sorted", "raw", "duplicate")
_ENDINGS = ("\n", "\n", "\n", "\r\n", "\r")

_lines = st.lists(
    st.tuples(
        _valid_record(), st.sampled_from(_STYLES), st.sampled_from(_ENDINGS), st.sampled_from(["", "", "", "  \n"])
    ),
    min_size=1,
    max_size=25,
)


def _file_text(lines):
    """Each line, its ending, then the blank line drawn with it (if any)."""
    return "".join(_render(record, style) + end + blank for record, style, end, blank in lines)


# The bulk reader's oracle: one whole line in the exact shape
# ``trace_lines`` writes, its fields captured. Keys in that order, no
# spaces, an id of ASCII without control characters below 0x20, quotes
# or backslashes (so no escapes), integers without sign, fraction or
# exponent, of at most 19 digits (so below 2**64). It matches only from
# a line start to its newline.
_DIGITS = r"(0|[1-9][0-9]{0,18})"
_CANONICAL_LINE = re.compile(
    r'(?m)^\{"ts_ms":' + _DIGITS + r',"obj":"([\x20\x21\x23-\x5b\x5d-\x7f]+)","off":' + _DIGITS
    + r',"len":' + _DIGITS + r',"kind":"(' + "|".join(TRACE_KINDS) + r')"\}\n'
)


@given(_lines, st.booleans(), st.integers(1, 200))
def test_bulk_read_equals_the_line_path_property(tmp_path_factory, lines, last_newline, chunk_bytes):
    path = tmp_path_factory.getbasetemp() / "mixed.jsonl"
    text = _file_text(lines)
    if not last_newline:
        text = text.rstrip("\r\n ")
    path.write_bytes(text.encode("utf-8"))
    want, error = _line_path(path)
    assert error is None
    # Only a file whose every line has the bulk shape skips the line path.
    read = text if text.endswith("\n") else text + "\n"  # as the bulk reader completes a last line
    canonical = all(_CANONICAL_LINE.fullmatch(line) for line in read.splitlines(True))
    parse = mock.Mock(wraps=tracemodel.parse_trace)
    with mock.patch.object(tracemodel, "parse_trace", parse):
        _assert_same_trace(read_trace(str(path)), want)
        # A few bytes a chunk put chunk cuts after every line or every few lines.
        with mock.patch.object(tracemodel, "_CHUNK_BYTES", chunk_bytes):
            _assert_same_trace(read_trace(str(path)), want)
    assert parse.call_count == (0 if canonical else 2)


def _oracle_columns(chunk, codes):
    """``_canonical_columns`` by the oracle: the shape by regex, the row checks by the line path."""
    rows = _CANONICAL_LINE.findall(chunk.decode("latin-1"))
    if len(rows) != chunk.count(b"\n"):
        return None
    try:
        rows = [tracemodel._checked_row({"ts_ms": int(t), "obj": o, "off": int(a), "len": int(n), "kind": k})
                for t, o, a, n, k in rows]
    except ValueError:
        return None
    ts, names, off, length, kinds = zip(*rows)
    for name in names:
        codes.setdefault(name, len(codes))
    return (np.array(ts, np.int64), np.array([codes[o] for o in names], np.int32), np.array(off, np.int64),
            np.array(length, np.int64), np.array([TRACE_KINDS.index(k) for k in kinds], np.uint8))


# Every character an id may hold in the bulk shape: printable ASCII and DEL, no quote or backslash.
_BULK_ID_CHARS = "".join(chr(c) for c in range(0x20, 0x80) if chr(c) not in '"\\')
_bulk_ids = st.sampled_from(["o1", "o2", "a\x7f"]) | st.text(_BULK_ID_CHARS, min_size=1, max_size=4)
_bulk_rows = st.lists(
    st.tuples(_valid_record(), _bulk_ids).map(lambda drawn: (*drawn[0][:1], drawn[1], *drawn[0][2:])),
    min_size=1,
    max_size=6,
)
# A near-miss of the bulk shape in one line: a byte put in or over any
# of its bytes, a field's text in place of one of its fields, no "}", or
# a blank line before it; or none.
_near_misses = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.just("byte"), st.sampled_from([b'"', b"\\", b" ", b"\r", b"\t", b"\x7f", b"\xe9"]),
              st.integers(0, 100), st.booleans()),
    st.tuples(st.just("field"), st.sampled_from([0, 2, 3]),
              st.sampled_from(["01", "1" + "0" * 19, "9" * 19, "-1", "1e3"])),
    st.tuples(st.just("field"), st.just(4), st.sampled_from(["gets", "ge"])),
    st.tuples(st.just("field"), st.just(1), st.just("")),
    st.tuples(st.just("no brace")),
    st.tuples(st.just("blank")),
)


def _bulk_line(fields, end='"}\n'):
    ts, obj, off, length, kind = fields
    return f'{{"ts_ms":{ts},"obj":"{obj}","off":{off},"len":{length},"kind":"{kind}{end}'.encode()


_TWO_ROWS = [(1, "a", 0, 1, "get"), (2, "b", 0, 1, "get")]


@given(_bulk_rows, st.integers(0, 5), _near_misses)
# One each for the checks that a near-miss drawn at random seldom reaches:
# bytes before the first line or a later one, a space for the colon after
# ts_ms (byte 8) or before the kind's quote (byte 44), in the id (byte 18)
# a tab, a quote, a backslash, a non-ASCII byte or DEL, which the bulk
# shape takes, and an offset whose sum with the length wraps past 2**64.
@example(rows=_TWO_ROWS, at=0, miss=("byte", b" ", 0, True))
@example(rows=_TWO_ROWS, at=1, miss=("byte", b" ", 0, True))
@example(rows=_TWO_ROWS, at=0, miss=("byte", b" ", 8, False))
@example(rows=_TWO_ROWS, at=1, miss=("byte", b" ", 44, True))
@example(rows=_TWO_ROWS, at=0, miss=("byte", b"\t", 18, True))
@example(rows=_TWO_ROWS, at=1, miss=("byte", b'"', 18, True))
@example(rows=_TWO_ROWS, at=0, miss=("byte", b"\\", 18, False))
@example(rows=_TWO_ROWS, at=1, miss=("byte", b"\xe9", 18, False))
@example(rows=_TWO_ROWS, at=0, miss=("byte", b"\x7f", 18, True))
@example(rows=_TWO_ROWS, at=1, miss=("byte", b"\r", 51, True))
@example(rows=_TWO_ROWS, at=1, miss=("no brace",))
@example(rows=[(1, "a", 0, MAX_TRACE_INT, "get")], at=0, miss=("field", 2, "9" * 19))
def test_bulk_columns_equal_the_oracle_on_near_misses_property(rows, at, miss):
    at = min(at, len(rows) - 1)
    lines = [_bulk_line(row) for row in rows]
    if miss[0] == "byte":
        _, byte, where, insert = miss
        where %= len(lines[at])
        lines[at] = lines[at][:where] + byte + lines[at][where + (not insert):]
    elif miss[0] == "field":
        fields = list(rows[at])
        fields[miss[1]] = miss[2]
        lines[at] = _bulk_line(fields)
    elif miss[0] == "no brace":
        lines[at] = _bulk_line(rows[at], '"\n')
    elif miss[0] == "blank":
        lines.insert(at, b"\n")
    chunk = b"".join(lines)
    chunk += b"" if chunk.endswith(b"\n") else b"\n"  # as _chunks hands a last line over
    codes, want_codes = {"o1": 0}, {"o1": 0}
    got, want = tracemodel._canonical_columns(chunk, codes), _oracle_columns(chunk, want_codes)
    assert (got is None) == (want is None)
    assert codes == want_codes
    for a, b in zip(got or (), want or ()):
        assert a.dtype == b.dtype and a.tolist() == b.tolist()


_runs = st.sampled_from(["0", "1" + "0" * 18, str(MAX_TRACE_INT), "9" * 19]) | st.integers(0, 10**19 - 1).map(str)
# Runs the parse refuses: a leading zero, 20 digits, or a byte that is no digit.
_refused_runs = st.one_of(
    st.integers(0, 10**18 - 1).map(lambda n: f"0{n}"),
    st.integers(10**19, 10**20 - 1).map(str),
    st.sampled_from(["-1", "1e3", "12a", "/", ":", "9 9"]),
)


@given(st.lists(st.tuples(_runs, _runs), min_size=1, max_size=4),
       st.none() | st.tuples(st.integers(0, 7), _refused_runs))
@example(runs=[("0", "9999999999999999999"), (str(10**18), str(MAX_TRACE_INT))], refused=None)
@example(runs=[("1", "1")], refused=(0, "1" + "0" * 19))
@example(runs=[("1", "1")], refused=(1, "01"))
def test_word_parse_equals_int_property(runs, refused):
    runs = list(runs)
    if refused is not None:
        # The refused run replaces one of the drawn ones.
        at, run = refused[0] % (2 * len(runs)), refused[1]
        runs[at // 2] = (run, runs[at // 2][1]) if at % 2 == 0 else (runs[at // 2][0], run)
    # Runs in each line's ts_ms, which starts 9 bytes into the chunk, and len, which ends near the end.
    lines = [f'{{"ts_ms":{a},"obj":"o","off":0,"len":{b},"kind":"get"}}\n' for a, b in runs]
    start, end, at = [], [], 0
    for line in lines:
        for key in ('"ts_ms":', '"len":'):
            start.append(at + line.index(key) + len(key))
            end.append(at + line.index(',"', start[-1] - at))
        at += len(line)
    words = tracemodel._words("".join(lines).encode())
    got = tracemodel._integers(words, *(np.reshape(x, (-1, 2)) + tracemodel._PAD for x in (start, end)))
    if refused is None:
        assert got.dtype == np.uint64 and got.tolist() == [[int(a), int(b)] for a, b in runs]
    else:
        assert got is None


# One bad line each, as bytes: integers past the limits and failed row
# checks in the exact line shape, then other JSON faults, a BOM, deep
# nesting, and invalid UTF-8 (the last two).
_FAULTS = [
    b'{"ts_ms":10000000000000000000,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":0,"len":100000000000000000000,"kind":"get"}',
    b'{"ts_ms":9223372036854775808,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":4611686018427387904,"len":4611686018427387904,"kind":"put"}',
    b'{"ts_ms":1,"obj":"a","off":9223372036854775807,"len":1,"kind":"head"}',
    b'{"ts_ms":1,"obj":"a","off":0,"len":0,"kind":"get"}',
    b'{"ts_ms":1,"obj":"","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1e3,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":true,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":[[1]],"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":0,"len":1,"kind":"got"}',
    b'{"ts_ms":01,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":-1,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":0,"len":1,"kind":"get","x":1}',
    b'[1]',
    b'{"ts_ms":-1,"obj":"a","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a","off":0,"len":-1,"kind":"head"}',
    b'\xef\xbb\xbf{"ts_ms":1,"obj":"a","off":0,"len":1,"kind":"get"}',
    b"[" * 5000,
    b'{"ts_ms":1,"obj":"a\xff","off":0,"len":1,"kind":"get"}',
    b'{"ts_ms":1,"obj":"a\xed\xa0\x80","off":0,"len":1,"kind":"get"}',
]


@pytest.mark.parametrize("fault", _FAULTS)
@settings(max_examples=20)
@given(lines=_lines, at=st.integers(0, 25), chunk_bytes=st.integers(1, 200))
def test_bulk_read_errors_equal_the_line_path_property(tmp_path_factory, fault, lines, at, chunk_bytes):
    # Good lines end in a newline, so the fault's line number is known.
    path = tmp_path_factory.getbasetemp() / "faulty.jsonl"
    at = min(at, len(lines))
    head, tail = _file_text(lines[:at]), _file_text(lines[at:])
    path.write_bytes(head.encode("utf-8") + fault + b"\n" + tail.encode("utf-8"))
    _, want = _line_path(path)
    with mock.patch.object(tracemodel, "_CHUNK_BYTES", chunk_bytes), pytest.raises(ValueError) as exc:
        read_trace(str(path))
    assert str(exc.value) == want
    with pytest.raises(ValueError) as exc:
        read_trace(str(path))
    assert str(exc.value) == want
    if b"\xff" in fault or b"\xed" in fault:
        assert "can't decode" in want
    else:
        lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        assert want.startswith(f"line {lineno}: ")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
def test_read_trace_refuses_a_fifo_without_opening_it(tmp_path):
    # Opening a FIFO that no process writes blocks, so the read runs in a
    # process with a timeout: a hang fails the test instead of stalling it.
    os.mkfifo(tmp_path / "F")
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "from iocost.tracemodel import read_trace\n"
        "try:\n"
        "    read_trace('F')\n"
        "except FileNotFoundError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=20
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "trace file not found: F\n", "")


def test_read_trace_refuses_a_device():
    # /dev/null reads as an empty trace, and /dev/zero would read without end.
    with pytest.raises(FileNotFoundError, match=f"^trace file not found: {os.devnull}$"):
        read_trace(os.devnull)


def test_canonical_lines_take_the_bulk_path(tmp_path, monkeypatch):
    trace = synthesize_trace(SynthSpec(records=3000, object_universe=100), seed=2)
    path = tmp_path / "t.jsonl"
    write_trace(trace, str(path))
    text = path.read_text()
    want = parse_trace(text.splitlines())
    with monkeypatch.context() as m:
        m.setattr(tracemodel, "_checked_rows", None)  # any call would fail
        _assert_same_trace(read_trace(str(path)), want)
    # One line in another shape sends the whole file through parse_trace, once.
    spaced = '{"ts_ms": 0, "obj": "o9", "off": 0, "len": 1, "kind": "get"}\n'
    path.write_text(text + spaced)
    parse = mock.Mock(wraps=tracemodel.parse_trace)
    monkeypatch.setattr(tracemodel, "parse_trace", parse)
    assert len(read_trace(str(path))) == 3001 and parse.call_count == 1
    # A spaced first line costs one chunk of bulk work before the line path.
    path.write_text(spaced + text)
    columns = mock.Mock(wraps=tracemodel._canonical_columns)
    monkeypatch.setattr(tracemodel, "_canonical_columns", columns)
    assert len(read_trace(str(path))) == 3001 and columns.call_count == 1 and parse.call_count == 2


def test_size_cdf_direct_counting():
    lines = [_line(i, length=KB) for i in range(5)] + [_line(10 + i, length=100 * KB) for i in range(5)]
    cdf = size_cdf(parse_trace(lines))
    assert cdf.fraction_at(KB) == 0.5
    assert cdf.fraction_at(100 * KB) == 1.0
    assert cdf.fraction_at(KB - 1) == 0.0
    assert cdf.fractions[-1] == 1.0
    # sizes past int64 lie above every sample
    assert cdf.fraction_at(2**63) == cdf.fraction_at(2**64) == 1.0


def test_size_cdf_single_record():
    cdf = size_cdf(parse_trace([_line(0, length=10 * KB)]))
    assert cdf.fraction_at(10 * KB) == 1.0


def test_size_cdf_ignores_non_gets_and_requires_gets():
    lines = [json.dumps({"ts_ms": 0, "obj": "a", "kind": "list"})]
    with pytest.raises(ValueError, match="no get records"):
        size_cdf(parse_trace(lines))
    with pytest.raises(ValueError, match="no sizes"):
        SizeCdf.from_sizes([])


def test_quantile_step_semantics():
    cdf = SizeCdf.from_sizes([MB, 10 * KB])
    assert cdf.quantile(0.5) == 10 * KB
    assert cdf.quantile(0.51) == MB
    assert cdf.quantile(1.0) == MB
    for bad in (0.0, -0.1, 1.01):
        with pytest.raises(ValueError):
            cdf.quantile(bad)


def test_quantile_matches_sort_oracle():
    rng = random.Random(11)
    for trial in range(20):
        sizes = [rng.randint(1, 10**6) for _ in range(1000)]
        cdf = SizeCdf.from_sizes(sizes)
        ordered = sorted(sizes)
        for permille in (100, 250, 500, 900, 990, 1000):
            # smallest sampled size whose cumulative count reaches
            # permille out of 1000 is the order statistic at that rank
            assert cdf.quantile(permille / 1000) == ordered[permille - 1]


def test_quantile_cdf_consistency():
    rng = random.Random(12)
    sizes = [rng.randint(1, 10**5) for _ in range(500)]
    cdf = SizeCdf.from_sizes(sizes)
    for _ in range(100):
        p = rng.uniform(0.001, 1.0)
        assert cdf.fraction_at(cdf.quantile(p)) >= p


def test_reuse_single_interval():
    trace = parse_trace([_line(0), _line(7_200_000)])
    stats = reuse_intervals(trace, MB)
    assert stats.intervals_ms == (7_200_000,)
    assert stats.median_ms == 7_200_000
    # the threshold comparison is strict, 2 hours is not under 2 hours
    assert stats.under_threshold_fraction == 0.0


def test_reuse_all_unique():
    trace = parse_trace([_line(i, obj=f"o{i}") for i in range(5)])
    stats = reuse_intervals(trace, MB)
    assert stats.intervals_ms == ()
    assert stats.median_ms is None
    assert stats.under_threshold_fraction is None


def test_reuse_hand_oracle():
    lines = [
        _line(0, "a"),
        _line(10, "b"),
        _line(25, "a"),
        _line(100, "a"),
        _line(110, "b"),
        _line(200, "c"),
    ]
    stats = reuse_intervals(parse_trace(lines), MB, threshold_ms=80)
    assert stats.intervals_ms == (25, 75, 100)
    assert stats.median_ms == 75
    assert stats.under_threshold_fraction == pytest.approx(2 / 3)


def test_reuse_median_adds_the_middle_two_exactly():
    # in float64 the sum would round to 2**62 first, and the median to 2**61
    trace = parse_trace([_line(0), _line(2**61), _line(2**62 + 513)])
    stats = reuse_intervals(trace, MB)
    assert stats.intervals_ms == (2**61, 2**61 + 513)
    assert stats.median_ms == (2**62 + 513) / 2 == 2**61 + 512


def test_reuse_granularity_splits_blocks():
    lines = [_line(0, "a", off=0), _line(10, "a", off=2 * MB)]
    assert reuse_intervals(parse_trace(lines), MB).intervals_ms == ()
    assert reuse_intervals(parse_trace(lines), 4 * MB).intervals_ms == (10,)


def test_popularity_share_basics():
    one_block = parse_trace([_line(i, "hot") for i in range(10)])
    assert popularity_share(one_block, MB, 1) == 1.0
    uniform = parse_trace([_line(i, f"o{i % 10}") for i in range(100)])
    assert popularity_share(uniform, MB, 5) == 0.5
    assert popularity_share(uniform, MB, 10) == 1.0
    assert popularity_share(uniform, MB, 50) == 1.0  # k beyond distinct blocks
    with pytest.raises(ValueError):
        popularity_share(uniform, MB, 0)


def test_statistics_refuse_their_arguments_before_grouping(monkeypatch):
    def no_grouping(*args, **kwargs):
        raise AssertionError("gets were grouped")

    trace = parse_trace([_line(i, f"o{i % 3}") for i in range(10)])
    monkeypatch.setattr(tracemodel, "group_pairs", no_grouping)
    with pytest.raises(ValueError, match="granularity must be > 0"):
        reuse_intervals(trace, granularity=0)
    with pytest.raises(ValueError, match="threshold must be > 0"):
        reuse_intervals(trace, threshold_ms=0)
    with pytest.raises(ValueError, match="k must be >= 1"):
        popularity_share(trace, k=0)


def test_popularity_share_monotone_in_k():
    trace = synthesize_trace(SynthSpec(records=5000, object_universe=500), seed=5)
    shares = [popularity_share(trace, MB, k) for k in (1, 5, 25, 125, 500)]
    assert shares == sorted(shares)
    assert shares[-1] == 1.0


def test_synthesis_determinism():
    spec = SynthSpec(records=5000)
    a = synthesize_trace(spec, seed=42)
    b = synthesize_trace(spec, seed=42)
    assert list(trace_lines(a)) == list(trace_lines(b))
    c = synthesize_trace(spec, seed=43)
    assert list(trace_lines(a)) != list(trace_lines(c))


def test_synthesis_shape():
    spec = SynthSpec(records=2000)
    trace = synthesize_trace(spec, seed=9)
    assert len(trace) == 2000
    ts = trace.ts_ms.tolist()
    assert ts == sorted(ts)
    assert all(0 <= t < spec.duration_ms for t in ts)
    assert len(trace.gets()) == len(trace)
    for rec in trace.gets():
        assert rec.kind == "get" and rec.off == 0
        assert spec.min_bytes <= rec.length <= spec.size_anchors[-1][0]


def test_synthesis_hits_anchors():
    trace = synthesize_trace(SynthSpec(records=100_000), seed=1)
    cdf = size_cdf(trace)
    assert abs(cdf.fraction_at(10 * KB) - 0.5) <= 0.02
    assert abs(cdf.fraction_at(MB) - 0.9) <= 0.02


def test_synthesis_respects_max_anchor():
    spec = SynthSpec(records=20_000, size_anchors=((KB, 0.6), (64 * KB, 1.0)), min_bytes=10)
    trace = synthesize_trace(spec, seed=3)
    assert trace.length.max() <= 64 * KB
    assert trace.length.min() >= 10


@pytest.mark.parametrize(
    "kwargs",
    [
        {"records": 0},
        {"size_anchors": ()},
        {"size_anchors": ((MB, 0.5), (KB, 1.0))},  # sizes not increasing
        {"size_anchors": ((KB, 0.9), (MB, 0.5))},  # fractions not increasing
        {"size_anchors": ((KB, 0.5), (MB, 0.9))},  # does not end at 1.0
        {"min_bytes": 0},
        {"min_bytes": 20 * KB},  # above first anchor
        {"object_universe": 0},
        {"zipf_exponent": 0.0},
        {"duration_ms": 0},
        {"object_universe": 10**7 + 1},
        {"object_universe": 10**9},
        {"zipf_exponent": float("nan")},
        {"zipf_exponent": float("inf")},
        {"size_anchors": ((KB, float("nan")), (MB, 1.0))},
        {"records": 10**8 + 1},
        {"size_anchors": ((10 * KB, 0.5), (10**19, 1.0))},
        {"duration_ms": 2**63 + 1},
    ],
)
def test_synthesis_spec_validation(kwargs):
    with pytest.raises(ValueError):
        SynthSpec(**kwargs)


def test_synthesis_spec_accepts_the_largest_universe():
    # constructing the spec draws nothing, so the cap is checked cheaply
    assert SynthSpec(object_universe=10**7).object_universe == 10**7


def test_synthesis_spec_accepts_the_trace_limits():
    assert SynthSpec(records=10**8).records == 10**8
    assert SynthSpec(size_anchors=((2**63 - 1, 1.0),)).size_anchors[-1][0] == 2**63 - 1
    spec = SynthSpec(records=100, object_universe=10, duration_ms=2**63)
    assert 0 <= synthesize_trace(spec, seed=3).ts_ms.max() <= 2**63 - 1


def test_trace_gets_filters_kinds():
    trace = parse_trace([_line(0), json.dumps({"ts_ms": 1, "obj": "x", "kind": "head"})])
    assert [r.kind for r in trace.gets()] == ["get"]


def test_trace_holds_typed_columns():
    trace = parse_trace([
        _line(3, "b", kind="put"),
        _line(1, "a", off=5, length=7),
        json.dumps({"ts_ms": 3, "obj": "a", "kind": "list"}),
    ])
    assert trace.objects == ("b", "a")
    assert trace.ts_ms.tolist() == [1, 3, 3]
    assert trace.obj.tolist() == [1, 0, 1]
    assert trace.off.tolist() == [5, 0, 0]
    assert trace.length.tolist() == [7, 1000, 0]
    assert [TRACE_KINDS[k] for k in trace.kind.tolist()] == ["get", "put", "list"]
    dtypes = [c.dtype for c in (trace.ts_ms, trace.obj, trace.off, trace.length, trace.kind)]
    assert dtypes == [np.int64, np.int32, np.int64, np.int64, np.uint8]
    assert trace.gets() == [AccessRecord(1, "a", 5, 7, "get")]


# SHA-256 of the canonical lines of synthesized traces, each ending in a
# newline: the draw order and the line format are part of the output.
SYNTH_DIGESTS = [
    (SynthSpec(records=2000), 0,
     "7cf46654d54e8ec930d78a9f341ed2c1d401d7effff4e86c213f862c9cd9d2b3"),
    # 2000 records over 1000 ms: tied timestamps
    (SynthSpec(records=2000, object_universe=50, duration_ms=1000), 5,
     "1346b22f40f09a96bf789214d73a8ec78e79bc81d663403bdbe86ddd94ac20fb"),
]


@pytest.mark.parametrize("spec,seed,digest", SYNTH_DIGESTS, ids=["default", "tied"])
def test_synthesized_trace_bytes_are_pinned(spec, seed, digest):
    trace = synthesize_trace(spec, seed)
    text = "".join(line + "\n" for line in trace_lines(trace))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    ingested = parse_trace(text.splitlines())
    for name in ("ts_ms", "obj", "off", "length", "kind"):
        assert getattr(trace, name).dtype == getattr(ingested, name).dtype, name


def test_a_draw_rounded_up_to_2_63_stays_in_the_top_segment(monkeypatch):
    # float64 exp may round a draw at a top anchor near 2**63 up to 2**63
    monkeypatch.setattr(tracemodel.np, "exp", lambda x: np.full_like(x, 2.0**63))
    spec = SynthSpec(records=3, size_anchors=((2**63 - 1, 1.0),), min_bytes=2**62)
    trace = synthesize_trace(spec, seed=0)
    assert trace.length.tolist() == [2**63 - 1024] * 3
    assert list(trace_lines(parse_trace(trace_lines(trace)))) == list(trace_lines(trace))


# The per-record statistics that the column passes replaced, kept as oracles.


def _size_cdf_oracle(trace):
    """The CDF's (size, cumulative fraction) steps."""
    counts = Counter(r.length for r in trace.gets())
    total = sum(counts.values())
    points = []
    running = 0
    for size in sorted(counts):
        running += counts[size]
        points.append((size, running / total))
    return points


def _reuse_intervals_oracle(trace, granularity, threshold_ms):
    last_seen = {}
    intervals = []
    for r in trace.gets():
        key = (r.obj, r.off // granularity)
        prev = last_seen.get(key)
        if prev is not None:
            intervals.append(r.ts_ms - prev)
        last_seen[key] = r.ts_ms
    if not intervals:
        return ReuseStats((), threshold_ms, None, None)
    under = sum(1 for i in intervals if i < threshold_ms)
    return ReuseStats(
        tuple(intervals), threshold_ms, float(statistics.median(intervals)), under / len(intervals)
    )


def _popularity_share_oracle(trace, granularity, k):
    counts = Counter((r.obj, r.off // granularity) for r in trace.gets())
    total = sum(counts.values())
    if total == 0:
        return 0.0
    return sum(nlargest(k, counts.values())) / total


# Mixed kinds; timestamps few (tied and unsorted) or huge (the median
# of two intervals near 2**63 must round as exact ints do); offsets
# near each other or spread over several 10**6-byte blocks.
_stat_rows = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 5), st.integers(2**62, 2**63 - 1)),
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(0, 10), st.integers(0, 4 * 10**6)),
        st.integers(1, 10**7),
        st.sampled_from(TRACE_KINDS),
    ),
    min_size=1,
    max_size=40,
)


@given(_stat_rows, st.sampled_from([1, 3, 10**6]), st.sampled_from([1, 2, 41]), st.integers(1, 10))
def test_statistics_equal_their_per_record_oracles(rows, granularity, k, threshold_ms):
    trace = Trace(AccessRecord(*row) for row in rows)
    if trace.gets():
        got, want = size_cdf(trace), _size_cdf_oracle(trace)
        assert list(zip(got.sizes.tolist(), got.fractions.tolist())) == want
        assert got.sizes.dtype == np.int64 and got.fractions.dtype == np.float64
        size, _ = want[len(want) // 2]
        assert type(got.quantile(0.5)) is int and type(got.fraction_at(size)) is float
    else:
        with pytest.raises(ValueError, match="no get records"):
            size_cdf(trace)
    got, want = reuse_intervals(trace, granularity, threshold_ms), _reuse_intervals_oracle(
        trace, granularity, threshold_ms
    )
    assert got.intervals_ms == want.intervals_ms
    assert got.threshold_ms == want.threshold_ms
    assert got.median_ms == want.median_ms
    assert got.under_threshold_fraction == want.under_threshold_fraction
    assert repr(got) == repr(want)
    got, want = popularity_share(trace, granularity, k), _popularity_share_oracle(trace, granularity, k)
    assert got == want and type(got) is float


def _group_pairs_lexsort_oracle(obj, block):
    """``group_pairs`` as a stable lexsort, as it was computed before the packed key."""
    order = np.lexsort((block, obj))
    new = np.ones(len(order), dtype=bool)
    key = obj[order]
    new[1:] = key[1:] != key[:-1]
    key = block[order]
    new[1:] |= key[1:] != key[:-1]
    return order, new


@st.composite
def _pair_columns(draw):
    """Object codes and blocks drawn from small pools, so pairs repeat.

    Blocks span either a few values or up to 2**62, where the object,
    block and position no longer pack into 63 bits.
    """
    objs = draw(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=1, max_size=4))
    top = draw(st.sampled_from([7, 2**62]))
    blocks = draw(st.lists(st.integers(0, top), min_size=1, max_size=4))
    picks = draw(st.lists(st.tuples(st.sampled_from(objs), st.sampled_from(blocks)), max_size=60))
    return (np.array([o for o, _ in picks], dtype=np.int32),
            np.array([b for _, b in picks], dtype=np.int64))


# Keys of exactly 63 bits (packed) and 64 bits (lexsort): one object bit,
# 61 or 62 block bits and one position bit; and blocks that fit one bit
# only once less their minimum.
@example((np.array([1, 0], dtype=np.int32), np.array([0, 2**61 - 1], dtype=np.int64)))
@example((np.array([1, 0], dtype=np.int32), np.array([0, 2**61], dtype=np.int64)))
@example((np.array([0, 1], dtype=np.int32), np.array([3, 2], dtype=np.int64)))
@given(_pair_columns())
def test_group_pairs_matches_lexsort_property(columns):
    obj, block = columns
    n = len(obj)
    bits = n and sum(
        int(x).bit_length() for x in (obj.max() - np.int64(obj.min()), block.max() - block.min(), n - 1)
    )
    # The lexsort is left only when the packed key would need more than 63 bits.
    refuse = mock.Mock(side_effect=AssertionError("lexsort on a key that fits 63 bits"))
    with mock.patch.object(tracemodel.np, "lexsort", refuse if n and bits <= 63 else np.lexsort):
        order, new = tracemodel.group_pairs(obj, block)
    want_order, want_new = _group_pairs_lexsort_oracle(obj, block)
    assert order.dtype == want_order.dtype and new.dtype == want_new.dtype
    assert order.tolist() == want_order.tolist()
    assert new.tolist() == want_new.tolist()
