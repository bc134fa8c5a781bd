"""Breadth-first baseline.

The unfocused comparator of Figures 3 and 4: every extracted URL is
enqueued in discovery order, no relevance information is used.  Its
harvest rate therefore tracks the dataset's relevance ratio, which is
exactly why it separates clearly from the focused strategies on the Thai
dataset (ratio ≈ 0.35) and barely at all on the Japanese one (≈ 0.71).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.candidate import LinkRun
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, FIFOFrontier, Frontier
from repro.core.strategies.base import CrawlStrategy
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse


class BreadthFirstStrategy(CrawlStrategy):
    """Crawl in pure discovery (FIFO) order."""

    name = "breadth-first"
    sees_scheduled_links = False  # expand is a pure per-link map

    def make_frontier(self) -> Frontier:
        return FIFOFrontier()

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> Sequence[Candidate]:
        return LinkRun(outlinks, 0, 0, parent.url)
