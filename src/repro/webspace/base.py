"""The web-space layer contracts: page sources and web spaces.

The out-of-core refactor splits what used to be one implicit interface
into two explicit protocols:

- :class:`PageSource` — the **storage** contract: a read-only, ordered
  mapping of normalised URL → :class:`~repro.webspace.page.PageRecord`.
  Both the in-memory :class:`~repro.webspace.crawllog.CrawlLog` and the
  columnar :class:`~repro.webspace.store.PageStore` satisfy it, which is
  what lets every consumer (virtual web, stats, LinkDB, checkpoint
  record re-attachment) run unchanged over either backend.

- :class:`WebSpace` — the **access** contract: what the crawl engine
  (:class:`~repro.core.engine.CrawlEngine`) and the wrapping layers
  (:class:`~repro.faults.FaultyWebSpace`,
  :class:`~repro.adversary.AdversarialWebSpace`) actually consume: a
  ``fetch`` responder plus the introspection surface the wrappers
  delegate.  Bodies are synthesized lazily on fetch — nothing above the
  storage layer ever holds the whole web as live objects.

Both are :func:`typing.runtime_checkable` so tests can assert
conformance structurally.
"""

from __future__ import annotations

from collections.abc import Iterator
from collections.abc import Set as AbstractSet
from typing import TYPE_CHECKING, Protocol, runtime_checkable

if TYPE_CHECKING:
    from repro.charset.languages import Language
    from repro.webspace.page import PageRecord
    from repro.webspace.virtualweb import FetchResponse


@runtime_checkable
class PageSource(Protocol):
    """Read-only ordered mapping of normalised URL → page record.

    Iteration order is the source's insertion order (the generator's
    emission order for universes, the capture crawl's visit order for
    datasets); determinism checks rely on it.

    **Optional capability: id-addressed sources.**  A source that
    numbers its URLs (:class:`~repro.webspace.store.PageStore`) may also
    offer ``fetch_record(url, hint=None)`` returning ``(record, page_id,
    outlink_url_ids)``, all None for a URL with no page.  The virtual
    web space detects it by name and then puts ``page_id`` and
    ``outlink_ids`` on its responses; the engine stamps those ids on the
    candidates it schedules and hands each back as the ``hint`` of that
    candidate's fetch.  The source mints ids and is the only one to
    trust them: it must verify a hint against the URL and fall back to
    its URL lookup on any mismatch, so consumers may pass stale or
    foreign ids freely.  A source without the method (the in-memory
    crawl log) is simply never hinted.
    """

    def __len__(self) -> int: ...

    def __contains__(self, url: str) -> bool: ...

    def __iter__(self) -> Iterator["PageRecord"]: ...

    def get(self, url: str) -> "PageRecord | None": ...

    def __getitem__(self, url: str) -> "PageRecord": ...

    def urls(self) -> Iterator[str]: ...

    def relevant_url_view(self, target_language: "Language") -> AbstractSet[str]:
        """URLs of the OK HTML pages declared in ``target_language``: the
        coverage denominator, "determined beforehand by analyzing the input
        crawl logs" (paper §3.4), so a source builds it once per language
        and returns that same object until it changes."""
        ...


@runtime_checkable
class WebSpace(Protocol):
    """The fetch interface the crawl engines consume.

    ``fetch``'s ``uid`` is an unverified url-id hint (None when the
    candidate carries none), passed on every fetch; wrappers forward it
    with the URL it belongs to or drop it.  ``fetch_count`` is mutable accounting (every layer
    increments its own); ``crawl_log`` exposes the underlying
    :class:`PageSource` so resume paths can re-attach records without
    holding live objects in checkpoints.
    """

    fetch_count: int

    def fetch(self, url: str, uid: int | None = None) -> "FetchResponse": ...

    def __contains__(self, url: str) -> bool: ...

    @property
    def crawl_log(self) -> PageSource: ...

    @property
    def synthesizes_bodies(self) -> bool: ...
