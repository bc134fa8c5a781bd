"""The crawl-log page record.

One :class:`PageRecord` is what the paper's virtual web space returns for
a request: HTTP status, charset, outlinks, plus bookkeeping the generator
adds (the page's *true* language, whether its declared charset is a
mislabel) that lets experiments separate classifier error from strategy
behaviour.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.charset.languages import Language, language_of_charset
from repro.errors import CrawlLogError
from repro.urlkit.normalize import intern_url

#: HTTP status of a successfully fetched page ("OK status (200)" in Table 3).
STATUS_OK = 200

#: Statuses the fault layer (:mod:`repro.faults`) injects.  They live
#: here, next to :data:`STATUS_OK`, because they are part of the page
#: vocabulary every layer shares — a visitor must be able to tell a
#: retryable server condition from a genuine 404 without importing the
#: fault subsystem.
STATUS_SERVER_ERROR = 503  #: transient 5xx: retry and the host recovers
STATUS_TIMEOUT = 408  #: the attempt hung and was abandoned
STATUS_HOST_DOWN = 521  #: the whole host is inside an outage window

#: Statuses a resilient fetch pipeline should treat as retryable.
RETRYABLE_STATUSES = frozenset({STATUS_SERVER_ERROR, STATUS_TIMEOUT, STATUS_HOST_DOWN})

#: Content type of pages that participate in link expansion.
HTML_CONTENT_TYPE = "text/html"

#: The link-cue bytes a generator can write: language code 0-5 in the low
#: three bits, anchor flag ``0x08``, around flag ``0x10`` (decoded by
#: :mod:`repro.graphgen.linkcontext`).  Anything else in a file is damage.
VALID_LINK_CUES = frozenset(cue for cue in range(0x20) if cue & 0x07 <= 5)


def check_link_cues(url: str, cues: Sequence[int], n_outlinks: int) -> None:
    """Raise :class:`CrawlLogError` unless ``cues`` is one valid byte per outlink.

    Called where a record crosses into the program (store row, store
    build), so a crawl never meets a cue it cannot decode.
    """
    if len(cues) != n_outlinks:
        raise CrawlLogError(
            f"{url!r}: link_cues length {len(cues)} != outlink count {n_outlinks}"
        )
    if not VALID_LINK_CUES.issuperset(cues):
        bad = next(cue for cue in cues if cue not in VALID_LINK_CUES)
        raise CrawlLogError(f"{url!r}: invalid link cue byte {bad!r}")


_set_field = object.__setattr__  # how a frozen dataclass fills itself


@dataclass(frozen=True, slots=True)
class PageRecord:
    """One entry of a crawl log.

    Attributes:
        url: normalised absolute URL; the record's identity.
        status: HTTP status the capture crawler observed (200, 3xx, 4xx, 5xx).
        content_type: MIME type; only ``text/html`` pages have outlinks.
        charset: the charset label the *server/author declared* — what a
            META tag would say.  ``None`` when the page declared nothing.
            May disagree with :attr:`true_language` (paper §3 observation 3:
            "Thai web pages are mislabeled as non-Thai web pages").
        true_language: ground-truth language of the page content, known to
            the generator.  Real crawl logs do not carry this field; it
            exists so experiments can quantify classifier error.
        outlinks: normalised URLs of the anchors on the page, in document
            order, duplicates removed.
        size: page body size in bytes (drives the optional timing model).
        link_cues: optional per-outlink textual-cue bytes (one per
            ``outlinks`` entry; encoding in
            :mod:`repro.graphgen.linkcontext`).  ``None`` on datasets
            generated without cue knobs — consumers must treat the two
            the same way they treat an absent column.
    """

    url: str
    status: int = STATUS_OK
    content_type: str = HTML_CONTENT_TYPE
    charset: str | None = None
    true_language: Language = Language.OTHER
    outlinks: tuple[str, ...] = field(default=())
    size: int = 0
    link_cues: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # A record built here is where its URLs enter the system, so the
        # canonical string objects are established here: interning makes
        # the simulator's scheduled-set and crawl-log lookups compare
        # pointers, not characters (see repro.urlkit.normalize).
        object.__setattr__(self, "url", intern_url(self.url))
        object.__setattr__(
            self, "outlinks", tuple(intern_url(link) for link in self.outlinks)
        )

    @classmethod
    def from_interned(
        cls, url, status, content_type, charset, true_language, outlinks, size, link_cues
    ) -> "PageRecord":
        """A record whose ``url`` and ``outlinks`` are already interned objects.

        The public constructor interns every URL it is given: a call per
        link, every fetch.  A :class:`PageStore` interns a URL once, where
        it decodes it, and builds its records here; only a caller that can
        promise the same (and that ``outlinks`` is a tuple) may.
        """
        record = object.__new__(cls)
        _set_field(record, "url", url)
        _set_field(record, "status", status)
        _set_field(record, "content_type", content_type)
        _set_field(record, "charset", charset)
        _set_field(record, "true_language", true_language)
        _set_field(record, "outlinks", outlinks)
        _set_field(record, "size", size)
        _set_field(record, "link_cues", link_cues)
        return record

    @property
    def ok(self) -> bool:
        """True when the capture crawler got a 200 for this URL."""
        return self.status == STATUS_OK

    @property
    def is_html(self) -> bool:
        return self.content_type == HTML_CONTENT_TYPE

    @property
    def declared_language(self) -> Language:
        """Language implied by the declared charset (META-tag semantics)."""
        return language_of_charset(self.charset)

    @property
    def mislabeled(self) -> bool:
        """True when the declared charset disagrees with the true language."""
        return self.declared_language is not self.true_language
