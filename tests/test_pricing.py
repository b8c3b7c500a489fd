"""Price books: published-rate fidelity, classification, exact cost arithmetic."""

import json
import pathlib
import random
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iocost.pricing import (
    CORE_KINDS,
    RequestTally,
    builtin_pricebooks,
    format_usd,
    get_pricebook,
    load_pricebook,
    pricebook_from_dict,
)
from iocost.units import PB

# Every published price point: (book id, request kind, dollars per
# 1,000 requests as printed). The GCS "GET Bucket" verb is split by the
# vendor into a listing flavor billed with writes and a config flavor
# billed with reads, so it shows up once on each side.
PRICE_POINTS = [
    ("s3-standard", "put", "0.005"),
    ("s3-standard", "get", "0.0004"),
    ("gcs-standard-xml", "list", "0.005"),
    ("gcs-standard-xml", "get-bucket-config", "0.0004"),
    ("gcs-standard-xml", "get", "0.0004"),
    ("azure-gpv2-premium", "put", "0.00228"),
    ("azure-gpv2-premium", "get", "0.00019"),
    ("azure-gpv2-hot", "put", "0.0065"),
    ("azure-gpv2-hot", "get", "0.0005"),
    ("azure-gpv2-cool", "put", "0.013"),
    ("azure-gpv2-cool", "get", "0.0013"),
    ("azure-gpv2-archive", "put", "0.013"),
    ("azure-gpv2-archive", "get", "0.65"),
]


def test_thirteen_price_points():
    assert len(PRICE_POINTS) == 13


@pytest.mark.parametrize("book_id,kind,dollars_per_1000", PRICE_POINTS)
def test_published_rate_fidelity(book_id, kind, dollars_per_1000):
    # Independent decimal-arithmetic oracle: 1,000 requests must cost
    # exactly the printed figure, in exact nanoUSD.
    book = get_pricebook(book_id)
    cost = book.cost_of(RequestTally({kind: 1000}))
    expected = int(Decimal(dollars_per_1000) * 10**9)
    assert cost == expected
    assert format_usd(cost) == dollars_per_1000.rstrip("0").rstrip(".")


@pytest.mark.parametrize(
    "book_id,kind,expected",
    [
        ("s3-standard", "list", "write"),
        ("s3-standard", "get", "read"),
        ("s3-standard", "select", "read"),
        ("s3-standard", "head", "read"),
        ("gcs-standard-xml", "head", "read"),
        ("gcs-standard-xml", "list", "write"),
        ("gcs-standard-xml", "copy", "write"),
        ("azure-gpv2-hot", "list", "read"),
        ("azure-gpv2-hot", "head", "read"),
        ("azure-gpv2-hot", "copy", "write"),
    ],
)
def test_classification(book_id, kind, expected):
    assert get_pricebook(book_id).classify(kind).name == expected


def test_builtin_books_cover_all_core_kinds():
    books = builtin_pricebooks()
    assert sorted(b.book_id for b in books) == sorted(
        [
            "s3-standard",
            "gcs-standard-xml",
            "azure-gpv2-premium",
            "azure-gpv2-hot",
            "azure-gpv2-cool",
            "azure-gpv2-archive",
        ]
    )
    for book in books:
        for kind in CORE_KINDS:
            assert book.classify(kind).name in ("read", "write")


def test_unknown_kind_names_the_kind():
    book = get_pricebook("s3-standard")
    with pytest.raises(ValueError, match="teleport"):
        book.classify("teleport")
    with pytest.raises(ValueError, match="teleport"):
        book.cost_of(RequestTally({"teleport": 1}))


def test_unknown_book_names_the_id():
    with pytest.raises(ValueError, match="moon-standard"):
        get_pricebook("moon-standard")


def test_cost_examples():
    s3 = get_pricebook("s3-standard")
    assert s3.cost_of(RequestTally({"get": 1_000_000})) == 400_000_000  # $0.40
    assert s3.cost_of(RequestTally({})) == 0
    # daily fleet-scale read volume stays exact
    assert s3.cost_of(RequestTally({"get": 10**12})) == 4 * 10**14


def _random_tally(rng):
    kinds = rng.sample(CORE_KINDS, rng.randint(1, len(CORE_KINDS)))
    counts = {k: rng.randint(0, 10**9) for k in kinds}
    nbytes = {k: rng.randint(0, 10**12) for k in kinds if counts[k] > 0}
    return RequestTally(counts, nbytes)


_kind_counts = st.dictionaries(st.sampled_from(CORE_KINDS), st.integers(0, 10**12))


@given(st.sampled_from(builtin_pricebooks()), _kind_counts, _kind_counts, st.integers(0, 10**6))
def test_additivity_property(book, a, b, k):
    # pricing is linear: a sum of tallies, per kind, costs the sum of
    # their costs, and k times a tally costs k times as much
    summed = {kind: a.get(kind, 0) + b.get(kind, 0) for kind in a.keys() | b.keys()}
    cost_a = book.cost_of(RequestTally(a))
    assert book.cost_of(RequestTally(summed)) == cost_a + book.cost_of(RequestTally(b))
    assert book.cost_of(RequestTally({kind: k * n for kind, n in a.items()})) == k * cost_a


def test_monotonicity_property():
    rng = random.Random(202)
    books = builtin_pricebooks()
    for _ in range(200):
        book = rng.choice(books)
        tally = _random_tally(rng)
        kind = rng.choice(list(tally.counts))
        bumped = dict(tally.counts)
        bumped[kind] += rng.randint(1, 1000)
        assert book.cost_of(RequestTally(bumped)) >= book.cost_of(tally)


def test_byte_independence_property():
    rng = random.Random(303)
    books = builtin_pricebooks()
    for _ in range(100):
        book = rng.choice(books)
        tally = _random_tally(rng)
        mutated = RequestTally(
            tally.counts,
            {k: rng.randint(0, 10**15) for k, c in tally.counts.items() if c > 0},
        )
        assert book.cost_of(mutated) == book.cost_of(tally)


def test_tally_validation():
    with pytest.raises(ValueError):
        RequestTally({"get": -1})
    with pytest.raises(ValueError):
        RequestTally({"get": 1}, {"get": -5})
    # bytes on a kind with zero requests make no sense
    with pytest.raises(ValueError):
        RequestTally({"get": 0}, {"get": 100})
    with pytest.raises(ValueError):
        RequestTally({}, {"put": 100})


@pytest.mark.parametrize(
    "nanousd,expected",
    [
        (400_000, "0.0004"),
        (8 * 10**13, "80000"),
        (0, "0"),
        (1, "0.000000001"),
        (5_000, "0.000005"),
        (10**9, "1"),
        (-400_000, "-0.0004"),
        (1_500_000_000, "1.5"),
    ],
)
def test_format_usd(nanousd, expected):
    assert format_usd(nanousd) == expected


def test_duplicate_kind_across_classes_rejected():
    spec = {
        "id": "dup",
        "classes": [
            {"class": "write", "kinds": ["get"], "nanousd_per_request": 1},
            {"class": "read", "kinds": ["get"], "nanousd_per_request": 2},
        ],
    }
    with pytest.raises(ValueError, match="more than one class"):
        pricebook_from_dict(spec)


def test_kind_repeated_in_one_class_is_accepted():
    spec = {"id": "rep", "classes": [{"class": "read", "kinds": ["get", "get"], "nanousd_per_request": 2}]}
    assert pricebook_from_dict(spec).cost_of(RequestTally({"get": 3})) == 6


def test_readme_library_example_gives_its_commented_figures():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    commented = (line.split("#") for line in block.splitlines() if "#" in line)
    figures = {comment.strip(): eval(code, namespace) for code, comment in commented}
    assert figures == {"400000000 nanoUSD": 400_000_000, "2 PB/day": 2 * PB}


def test_schema_validation_messages():
    with pytest.raises(ValueError, match="'id'"):
        pricebook_from_dict({"classes": []})
    with pytest.raises(ValueError, match="classes"):
        pricebook_from_dict({"id": "x"})
    with pytest.raises(ValueError, match="nanousd_per_request"):
        pricebook_from_dict(
            {"id": "x", "classes": [{"class": "read", "kinds": ["get"], "nanousd_per_request": 0.4}]}
        )
    with pytest.raises(ValueError, match="read.*write|'read' or 'write'"):
        pricebook_from_dict(
            {"id": "x", "classes": [{"class": "other", "kinds": ["get"], "nanousd_per_request": 1}]}
        )


def test_load_pricebook_roundtrip(tmp_path):
    spec = {
        "id": "onprem-flat",
        "classes": [
            {"class": "write", "kinds": ["put", "post", "copy", "list"], "nanousd_per_request": 120},
            {"class": "read", "kinds": ["get", "head", "select"], "nanousd_per_request": 30},
        ],
    }
    path = tmp_path / "book.json"
    path.write_text(json.dumps(spec))
    book = load_pricebook(str(path))
    assert book.book_id == "onprem-flat"
    assert book.classify("get").nanousd_per_request == 30
    assert book.classify("list").name == "write"
    assert book.cost_of(RequestTally({"get": 1000, "put": 10})) == 30_000 + 1_200


def test_load_pricebook_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="invalid JSON"):
        load_pricebook(str(path))
