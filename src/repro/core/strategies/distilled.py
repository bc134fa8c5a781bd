"""Soft-focused crawling with the distiller (paper §2.1, completed).

The paper's language-specific crawler adapts two of the three focused
crawling components and leaves the distiller out.  This strategy puts it
back: a soft-focused base policy whose queue is periodically re-ranked by
relevance-weighted hub analysis — "the priority values of URLs identified
as hubs and their immediate neighbors are raised".

Priorities use a widened band so the hub bonus can express itself between
the two referrer-relevance bands:

- base: relevant referrer → ``BAND``; irrelevant referrer → 0
- bonus: + up to ``BAND - 1`` for neighbors of strong hubs

so a hub-endorsed URL from an irrelevant referrer can outrank plain
irrelevant-referrer URLs but never a relevant-referrer URL — focusing
remains the primary signal, exactly as in the original system.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.classifier import Judgment
from repro.core.distiller import Distiller
from repro.core.frontier import Candidate, Frontier, ReprioritizableFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse


class DistilledSoftStrategy(CrawlStrategy):
    """Soft-focused + intermittent distillation."""

    name = "distilled-soft"
    resumable = False

    #: priority band width; hub bonus occupies [1, BAND-1].
    BAND = 10

    def __init__(self, distill_every: int = 1000, top_fraction: float = 0.05) -> None:
        if distill_every < 1:
            raise ValueError("distill_every must be >= 1")
        self.distill_every = distill_every
        self._distiller = Distiller(top_fraction=top_fraction)
        self._frontier: ReprioritizableFrontier | None = None
        self.distillations = 0
        self.reprioritized = 0

    def make_frontier(self) -> Frontier:
        self._frontier = ReprioritizableFrontier()
        return self._frontier

    def max_priority(self) -> int:
        return self.BAND

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> list[Candidate]:
        outlinks = tuple(outlinks)
        self._distiller.observe(parent.url, outlinks, judgment.relevant)
        base = self.BAND if judgment.relevant else 0
        return [Candidate(url=url, priority=base, referrer=parent.url) for url in outlinks]

    def tick(self, step: int, frontier: Frontier) -> None:
        if step % self.distill_every != 0:
            return
        if not isinstance(frontier, ReprioritizableFrontier):
            return
        hubs = self._distiller.top_hubs()
        if not hubs:
            return
        self.distillations += 1
        for url, score in self._distiller.hub_neighbors(hubs).items():
            current = frontier.priority_of(url)
            if current is None or current >= self.BAND:
                continue  # not queued, or already in the top band
            bonus = max(1, int(score * (self.BAND - 1)))
            if bonus > current:
                frontier.update_priority(url, bonus)
                self.reprioritized += 1
