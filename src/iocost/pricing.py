"""Per-request price books for cloud object stores.

Money is handled as integer nanoUSD (10**-9 USD). Every published
per-1,000-request price converts to a whole number of nanoUSD per
request (e.g. $0.0004 per 1,000 is 400 nanoUSD per request), so all
cost arithmetic in this package is exact integer arithmetic. Python
integers are unbounded, which keeps totals exact even at the
10**12-requests-per-day scale the fleet models produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .units import REQUIRED, check_fields, load_json

NANOUSD_PER_USD = 10**9

# Request kinds every price book must be able to classify.
CORE_KINDS = ("get", "put", "post", "copy", "list", "head", "select")


@dataclass(frozen=True)
class PriceClass:
    """A vendor billing class, "read" or "write", billed at ``nanousd_per_request``."""

    name: str
    nanousd_per_request: int


@dataclass(frozen=True)
class PriceBook:
    """A vendor/tier price list: each request kind's billing class.

    Built by ``pricebook_from_dict``, whose field table checks the id,
    the class names, non-empty kind lists and integer prices >= 0, and
    which refuses a kind listed in two classes.
    """

    book_id: str
    classes: dict[str, PriceClass]

    def classify(self, kind: str) -> PriceClass:
        """Return the class the book bills ``kind`` under."""
        try:
            return self.classes[kind]
        except KeyError:
            raise ValueError(
                f"price book {self.book_id!r} cannot classify request kind {kind!r}"
            ) from None

    def cost_of(self, tally: "RequestTally") -> int:
        """Exact cost of a tally in nanoUSD.

        Depends only on request counts, never on bytes; object stores
        charge per call regardless of payload size.
        """
        return sum(count * self.classify(kind).nanousd_per_request for kind, count in tally.counts.items())


@dataclass(frozen=True)
class RequestTally:
    """Counts (and informational bytes) of storage requests by kind."""

    counts: dict[str, int] = field(default_factory=dict)
    transferred_bytes: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind, count in self.counts.items():
            if not isinstance(count, int) or isinstance(count, bool) or count < 0:
                raise ValueError(f"count for kind {kind!r} must be a non-negative integer, got {count!r}")
        for kind, nbytes in self.transferred_bytes.items():
            if not isinstance(nbytes, int) or isinstance(nbytes, bool) or nbytes < 0:
                raise ValueError(f"bytes for kind {kind!r} must be a non-negative integer, got {nbytes!r}")
            if nbytes > 0 and self.counts.get(kind, 0) == 0:
                raise ValueError(f"kind {kind!r} transfers {nbytes} bytes but has zero requests")

    @property
    def total_requests(self) -> int:
        return sum(self.counts.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.transferred_bytes.values())


def format_usd(nanousd: int) -> str:
    """Format nanoUSD as a USD decimal string, 9 places then trimmed.

    400_000 -> "0.0004", 8 * 10**13 -> "80000". No currency symbol,
    callers add one where it helps.
    """
    sign = "-" if nanousd < 0 else ""
    whole, frac = divmod(abs(nanousd), NANOUSD_PER_USD)
    text = f"{whole}.{frac:09d}".rstrip("0").rstrip(".")
    return sign + text


# Built-in price data. Prices are per request in nanoUSD; the
# published sheets quote per 1,000 requests, so $0.005 per 1,000 is
# 5,000 nanoUSD per request.
_AZURE_TIERS = {
    "premium": (2_280, 190),
    "hot": (6_500, 500),
    "cool": (13_000, 1_300),
    "archive": (13_000, 650_000),
}

_BUILTIN_SPECS: list[dict] = [
    {
        "id": "s3-standard",
        "classes": [
            {
                "class": "write",
                "label": "PUT, COPY, POST, LIST requests",
                "kinds": ["put", "copy", "post", "list"],
                "nanousd_per_request": 5_000,
            },
            {
                "class": "read",
                "label": "GET, SELECT, and all other requests",
                "kinds": ["get", "select", "head"],
                "nanousd_per_request": 400,
            },
        ],
    },
    {
        # XML API pricing. "GET Bucket" is split by the vendor: listing
        # objects bills at the write-class rate (kind "list"), while
        # retrieving bucket configuration bills at the read-class rate
        # (kind "get-bucket-config").
        "id": "gcs-standard-xml",
        "classes": [
            {
                "class": "write",
                "label": "GET Service, GET Bucket (list), PUT, POST",
                "kinds": ["put", "post", "copy", "list"],
                "nanousd_per_request": 5_000,
            },
            {
                "class": "read",
                "label": "GET Bucket (config), GET Object, HEAD",
                "kinds": ["get", "head", "select", "get-bucket-config"],
                "nanousd_per_request": 400,
            },
        ],
    },
]
for _tier, (_w, _r) in _AZURE_TIERS.items():
    _BUILTIN_SPECS.append(
        {
            "id": f"azure-gpv2-{_tier}",
            "classes": [
                {
                    "class": "write",
                    "label": "Write operations",
                    "kinds": ["put", "post", "copy"],
                    "nanousd_per_request": _w,
                },
                {
                    "class": "read",
                    "label": "Read operations",
                    "kinds": ["get", "head", "list", "select"],
                    "nanousd_per_request": _r,
                },
            ],
        }
    )


_CLASS_FIELDS = (
    ("class", ("read", "write"), REQUIRED, None),
    ("label", "str", None, None),
    ("kinds", "strs", REQUIRED, 1),
    ("nanousd_per_request", "int", REQUIRED, 0),
)
_PRICEBOOK_FIELDS = (
    ("id", "str", REQUIRED, None),
    ("classes", [_CLASS_FIELDS], REQUIRED, 1),
)


def pricebook_from_dict(spec: dict) -> PriceBook:
    """Build a PriceBook from the JSON schema used by files and built-ins.

    Schema: {"id": str, "classes": [{"class": "read"|"write",
    "kinds": [str, ...], "nanousd_per_request": int}]}. An optional
    per-class "label" with the vendor wording is accepted and ignored.
    """
    f = check_fields(spec, _PRICEBOOK_FIELDS, "price book")
    classes: dict[str, PriceClass] = {}
    for c in f["classes"]:
        pc = PriceClass(c["class"], c["nanousd_per_request"])
        for kind in c["kinds"]:
            if classes.setdefault(kind, pc) is not pc:
                raise ValueError(
                    f"price book {f['id']!r}: kind {kind!r} appears in more than one class"
                )
    return PriceBook(f["id"], classes)


def builtin_pricebooks() -> tuple[PriceBook, ...]:
    """All built-in price books (S3 standard, GCS standard XML, four Azure GPv2 tiers)."""
    return tuple(pricebook_from_dict(spec) for spec in _BUILTIN_SPECS)


def get_pricebook(book_id: str) -> PriceBook:
    """Look up a built-in price book by id."""
    for book in builtin_pricebooks():
        if book.book_id == book_id:
            return book
    known = ", ".join(spec["id"] for spec in _BUILTIN_SPECS)
    raise ValueError(f"unknown price book {book_id!r} (known: {known})")


def load_pricebook(path: str) -> PriceBook:
    """Load a price book from a JSON file using the built-in schema."""
    return pricebook_from_dict(load_json(path, "price book file"))
