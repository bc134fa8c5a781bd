"""The virtual web space: what the simulated crawler "downloads" from.

"The virtual web space gives the properties of the requested web page,
such as page's character set and download time, as a response to each
request" (paper §1).  :class:`VirtualWebSpace` is that responder.

Unknown URLs — link targets the capture crawl never fetched — answer with
a synthetic 404, because a real crawler does not know in advance that a
URL is dead; it spends a request finding out.  This matters for metrics:
the paper's page counts include non-OK fetches.

When constructed with a ``body_synthesizer`` (see
:mod:`repro.graphgen.htmlsynth`), OK HTML responses also carry actual
HTML bytes so the classifier can run real META parsing and byte-level
charset detection instead of trusting the log.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import NamedTuple, Protocol, cast

from repro.webspace.base import PageSource
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK, PageRecord

#: Status reported for URLs absent from the crawl log.
STATUS_UNKNOWN_URL = 404


class FetchResponse(NamedTuple):
    """What one simulated download returns.

    ``record`` is None for URLs with no crawl-log entry; ``body`` is None
    unless body synthesis is enabled and the page is an OK HTML page.

    One per fetch, so a tuple (like ``Candidate``): built positionally on
    the fetch path, by keyword elsewhere, and altered only by derivation —
    ``response._replace(...)`` in the fault and adversary wrappers.
    """

    url: str
    status: int
    content_type: str
    charset: str | None
    outlinks: tuple[str, ...]
    size: int
    body: bytes | None = None
    record: PageRecord | None = None
    #: True when the fault layer truncated/garbled the body; the
    #: classifier degrades such pages to "irrelevant" instead of running
    #: (and failing) charset detection on garbage.
    truncated: bool = False
    #: Name of the injected fault ("transient"/"timeout"/"outage"/
    #: "truncate"), or None for an organic response.  Retryability is
    #: keyed on this, never on the status code, so trace-captured 5xx
    #: pages keep their paper semantics (fetched once, judged, counted).
    fault: str | None = None
    #: Location the adversary layer is redirecting this fetch to, or
    #: None.  Only the adversary mints these; trace-captured 3xx records
    #: keep redirect_to None (the capture crawl already resolved them),
    #: so the engine's follow-redirect policy is dormant on clean runs.
    redirect_to: str | None = None
    #: Name of the adversary scenario that shaped this response
    #: ("trap"/"redirect"/"soft404"/"alias"/"mislabel"), or None for an
    #: unmodified response.  Observability only — never consulted by
    #: engine policy, which must work from content like a real crawler.
    adversary: str | None = None
    #: Id hints from an id-addressed page source (a ``PageStore``): the
    #: page's id and its outlinks' url-ids, aligned with ``outlinks``.
    #: None from every other source, and never checkpointed.
    page_id: int | None = None
    outlink_ids: tuple[int, ...] | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def is_html(self) -> bool:
        return self.content_type == HTML_CONTENT_TYPE


#: ``_new_response(FetchResponse, fields)`` is a response from a tuple of
#: all its fields, without a Python frame: what ``FetchResponse._make``
#: does, minus its call and its length check.
_new_response = cast("Callable[[type[FetchResponse], tuple], FetchResponse]", tuple.__new__)


class BodySynthesizer(Protocol):
    """Renders the HTML bytes of a page record on demand."""

    def __call__(self, record: PageRecord) -> bytes: ...


class VirtualWebSpace:
    """Trace-driven responder over any :class:`~repro.webspace.base.PageSource`.

    The access layer of the generation/storage/access split: it does not
    care whether the page source is the in-memory
    :class:`~repro.webspace.crawllog.CrawlLog` or the on-disk
    :class:`~repro.webspace.store.PageStore` — records are looked up per
    fetch and bodies synthesized lazily, so the resident footprint is
    the source's, not the web's.
    """

    def __init__(
        self,
        crawl_log: PageSource,
        body_synthesizer: BodySynthesizer | None = None,
    ) -> None:
        self._log = crawl_log
        #: The source's hint-accepting lookup, if it is id-addressed.
        self._fetch_record = getattr(crawl_log, "fetch_record", None)
        #: The source's plain lookup; a crawl log's is C-level.
        self._get = getattr(crawl_log, "lookup", crawl_log.get)
        self._synthesize = body_synthesizer
        self.fetch_count = 0

    @property
    def crawl_log(self) -> PageSource:
        return self._log

    @property
    def synthesizes_bodies(self) -> bool:
        """Whether OK HTML responses carry rendered byte bodies.

        Wrapping layers (faults, adversary) consult this so the synthetic
        pages they mint match the realism level of the organic ones.
        """
        return self._synthesize is not None

    def __contains__(self, url: str) -> bool:
        return url in self._log

    def fetch(self, url: str, uid: int | None = None) -> FetchResponse:
        """Simulate downloading ``url``.

        Never raises for unknown URLs — those come back as a 404 response
        with no links, mirroring what a live crawler would observe.
        ``uid`` is an unverified url-id hint; only an id-addressed source
        reads it (and checks it), every other source ignores it.
        """
        self.fetch_count += 1
        if self._fetch_record is None:
            record, page_id, link_ids = self._get(url), None, None
        else:
            record, page_id, link_ids = self._fetch_record(url, uid)
        if record is None:
            return _new_response(FetchResponse, (
                url, STATUS_UNKNOWN_URL, HTML_CONTENT_TYPE, None, (), 0, None, None,
                False, None, None, None, None, None,
            ))
        status = record.status
        content_type = record.content_type
        emits = status == STATUS_OK and content_type == HTML_CONTENT_TYPE
        body: bytes | None = None
        if self._synthesize is not None and emits:
            body = self._synthesize(record)
        return _new_response(FetchResponse, (
            record.url, status, content_type, record.charset,
            record.outlinks if emits else (), record.size, body, record,
            False, None, None, None,  # truncated, fault, redirect_to, adversary
            page_id, link_ids if emits else None,
        ))


def make_cached_synthesizer(
    synthesizer: BodySynthesizer, max_entries: int = 4096
) -> BodySynthesizer:
    """Wrap a body synthesizer with a bounded FIFO cache.

    Re-rendering is deterministic, so caching is purely a speed
    optimisation for workloads that re-fetch (the simulator itself never
    fetches a URL twice, but examples and tests do).
    """
    cache: dict[str, bytes] = {}
    order: deque[str] = deque()  # first-rendered first; O(1) to evict from

    def cached(record: PageRecord) -> bytes:
        body = cache.get(record.url)
        if body is None:
            body = synthesizer(record)
            if len(cache) >= max_entries:
                del cache[order.popleft()]
            cache[record.url] = body
            order.append(record.url)
        return body

    return cached
