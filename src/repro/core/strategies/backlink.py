"""Backlink-count crawl ordering (Cho, Garcia-Molina & Page — the
paper's reference [3], "Efficient Crawling Through URL Ordering").

Priority of a queued URL = the number of crawled pages seen linking to
it so far.  This is the classic *importance*-driven ordering the paper's
related work discusses; it is language-blind, so on a language-specific
task it serves as the strongest non-focused baseline — well-linked hub
pages surface early whether or not they are in the target language.

Requires the reprioritizable frontier: a URL's backlink count keeps
growing while it sits in the queue.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Sequence

from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, Frontier, ReprioritizableFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse


class BacklinkCountStrategy(CrawlStrategy):
    """Crawl the most-referenced known URL first."""

    name = "backlink-count"
    resumable = False

    def __init__(self) -> None:
        self._backlinks: dict[str, int] = defaultdict(int)
        self._frontier: ReprioritizableFrontier | None = None

    def make_frontier(self) -> Frontier:
        # make_frontier is the per-run reset point (see base.py): a reused
        # instance must not inherit backlink counts from a previous run.
        self._backlinks = defaultdict(int)
        self._frontier = ReprioritizableFrontier()
        return self._frontier

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> list[Candidate]:
        children = []
        for url in outlinks:
            self._backlinks[url] += 1
            count = self._backlinks[url]
            # Already queued: bump its priority in place.  Not queued:
            # emit a candidate (the simulator drops it if already
            # crawled).
            if self._frontier is not None and self._frontier.update_priority(url, count):
                continue
            children.append(Candidate(url=url, priority=count, referrer=parent.url))
        return children
