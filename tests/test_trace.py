"""The request table: a trace's tally against a count of its rows."""

from hypothesis import given
from hypothesis import strategies as st

from iocost.pricing import RequestTally
from iocost.trace import TRACE_KINDS, Trace

# Small lengths, and lengths near 2**63 whose int64 sum would wrap.
_LENGTHS = st.integers(0, 2**20) | st.sampled_from([2**62, 2**63 - 2, 2**63 - 1])
_ROWS = st.lists(
    st.tuples(st.integers(0, 50), st.sampled_from("abc"), st.integers(0, 2**20), _LENGTHS,
              st.sampled_from(TRACE_KINDS)),
    max_size=60,
)


def _counted(rows) -> RequestTally:
    """The tally of ``rows``, one Python int addition a row."""
    counts, nbytes = {}, {}
    for _, _, _, length, kind in rows:
        counts[kind] = counts.get(kind, 0) + 1
        nbytes[kind] = nbytes.get(kind, 0) + length
    return RequestTally(counts, nbytes)


@given(_ROWS)
def test_tally_equals_a_count_of_the_rows_property(rows):
    tally = Trace(rows).tally()
    assert tally == _counted(rows)
    assert list(tally.counts) == list(tally.transferred_bytes) == [k for k in TRACE_KINDS if k in tally.counts]
    assert all(type(v) is int for v in [*tally.counts.values(), *tally.transferred_bytes.values()])


def test_tally_past_int64_is_exact():
    rows = [(0, "a", 0, 2**63 - 1, "get"), (1, "b", 0, 2**63 - 2, "get"), (1, "a", 0, 2**62, "put"),
            (2, "a", 0, 0, "list"), (3, "b", 0, 2**63 - 1, "get")]
    tally = Trace(rows).tally()
    assert tally.counts == {"get": 3, "put": 1, "list": 1}
    assert tally.transferred_bytes == {"get": 3 * 2**63 - 4, "put": 2**62, "list": 0}


def test_an_empty_trace_tallies_nothing():
    assert Trace().tally() == RequestTally()
