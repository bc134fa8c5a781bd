"""The visitor: crawler mechanics over the virtual web space.

"A visitor simulates various operations of a crawler i.e. managing the
URL queue, downloading of web pages, and extracting new URLs" (paper §4).
Queue management lives in :mod:`repro.core.frontier`; this class covers
the other two: downloading (delegated to the virtual web space) and URL
extraction — either straight from the crawl-log record, or by actually
parsing the synthesized HTML body when the simulation runs with bodies
enabled.
"""

from __future__ import annotations

from collections.abc import Sequence
from time import perf_counter
from typing import Any

from repro.graphgen.linkcontext import record_link_contexts
from repro.urlkit.extract import LinkContext, extract_link_contexts, extract_links
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK
from repro.webspace.virtualweb import FetchResponse


class Visitor:
    """Fetch-and-extract front end used by the simulator.

    Transfer accounting is honest about failure: a fetch that produced
    no page — an unknown-URL 404 or an injected fault, both recognisable
    by ``response.record is None`` — increments :attr:`fetches_failed`
    instead of :attr:`pages_fetched`/:attr:`bytes_fetched`, so
    harvest-rate denominators and the ``visitor.bytes`` counter stay
    meaningful under fault injection.

    With an :class:`repro.obs.Instrumentation` attached, the visitor
    times its two operations ("visitor.fetch", "visitor.extract") and
    counts transferred bytes ("visitor.bytes") and failed fetches
    ("visitor.fetches_failed"); without one, the only cost per call is
    a ``None`` check.
    """

    def __init__(
        self,
        web,
        extract_from_body: bool = False,
        instrumentation=None,
    ) -> None:
        self._web = web
        self._extract_from_body = extract_from_body
        self._instr = instrumentation
        self.pages_fetched = 0
        self.bytes_fetched = 0
        self.fetches_failed = 0

    @property
    def web(self):
        return self._web

    def fetch(self, url: str, uid: int | None = None) -> FetchResponse:
        """Simulate downloading ``url`` and update transfer accounting.

        ``uid`` is the candidate's url-id hint, handed to the web space
        as is: every :class:`~repro.webspace.base.WebSpace` takes one, and
        only an id-addressed source reads it.
        """
        instr = self._instr
        if instr is None:
            response = self._web.fetch(url, uid)
        else:
            started = perf_counter()
            response = self._web.fetch(url, uid)
            instr.observe("visitor.fetch", perf_counter() - started)
        if response.record is None:
            self.fetches_failed += 1
            if instr is not None:
                instr.count("visitor.fetches_failed")
        else:
            self.pages_fetched += 1
            self.bytes_fetched += response.size
            if instr is not None:
                instr.count("visitor.bytes", response.size)
        return response

    def extract(self, response: FetchResponse) -> tuple[str, ...]:
        """Outlinks of a fetched page.

        With ``extract_from_body`` enabled (and a body present), links
        are parsed out of the HTML; otherwise the crawl-log record's
        outlinks are used directly.  For synthesized pages the two agree
        — a property the integration tests pin down.
        """
        instr = self._instr
        if instr is not None:
            started = perf_counter()
        if response.status != STATUS_OK or response.content_type != HTML_CONTENT_TYPE:
            outlinks: tuple[str, ...] = ()
        elif self._extract_from_body and response.body is not None:
            outlinks = tuple(extract_links(response.body, response.url))
        else:
            outlinks = response.outlinks
        if instr is not None:
            instr.observe("visitor.extract", perf_counter() - started)
        return outlinks

    def extract_contexts(
        self, response: FetchResponse, outlinks: tuple[str, ...]
    ) -> Sequence[Any] | None:
        """Per-outlink textual contexts, aligned 1:1 with ``outlinks``.

        Only called when the active strategy sets
        ``wants_link_contexts`` — context-blind runs never pay for it.
        With ``extract_from_body`` (and a body present) the contexts are
        :class:`~repro.urlkit.extract.LinkContext` rows parsed out of the
        HTML; otherwise they are the crawl-log record's one
        :class:`~repro.graphgen.linkcontext.RecordLinkContexts` row,
        whose contexts read the same (``url``, ``anchor_text``,
        ``around_text``) but score from the record's cue bytes and word
        their text only when asked.  The two modes
        agree on the anchor *markup*, not on what a strategy reads: a
        body is encoded to the page's native charset before
        :func:`~repro.urlkit.extract.extract_link_contexts` decodes it as
        Latin-1 (see that function), so only record mode sees Thai/CJK
        anchors as such.  ``outlinks`` is the engine's post-defense link
        list, which may be a filtered, reordered or rewritten version of
        the raw extraction — contexts are then re-aligned to it by URL
        (a tuple), with an empty context for any URL the source did not
        cover.  Returns None when no context source exists (no body
        parse and no record).
        """
        if not outlinks or not response.ok or not response.is_html:
            return ()
        if self._extract_from_body and response.body is not None:
            raw = extract_link_contexts(response.body, response.url)
        elif response.record is not None:
            raw = record_link_contexts(response.record)
            if outlinks is response.record.outlinks:
                return raw
        else:
            return None
        by_url = {context.url: context for context in raw}
        return tuple(
            by_url.get(url) or LinkContext(url, "", "") for url in outlinks
        )

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "pages_fetched": self.pages_fetched,
            "bytes_fetched": self.bytes_fetched,
            "fetches_failed": self.fetches_failed,
        }

    def restore(self, state: dict) -> None:
        self.pages_fetched = state["pages_fetched"]
        self.bytes_fetched = state["bytes_fetched"]
        self.fetches_failed = state.get("fetches_failed", 0)
