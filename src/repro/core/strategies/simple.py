"""The simple strategy (paper §3.3.1, Table 2).

Priority of each URL is assigned from the relevance score of its
*referrer* page:

=============  =====================  ============================
Mode           Relevant referrer      Irrelevant referrer
=============  =====================  ============================
hard-focused   add to URL queue       **discard** extracted links
soft-focused   add with high priority  add with low priority
=============  =====================  ============================

Hard-focused needs no priority queue (everything kept is equal), so it
runs on a FIFO frontier; soft-focused uses the two-band priority queue.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.candidate import LinkRun
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, FIFOFrontier, Frontier, PriorityFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.errors import ConfigError
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse

#: Priority bands of the soft-focused mode.
HIGH_PRIORITY = 1
LOW_PRIORITY = 0


class SimpleStrategy(CrawlStrategy):
    """Referrer-relevance priority assignment, hard or soft."""

    sees_scheduled_links = False  # expand is a pure per-link map

    def __init__(self, mode: str = "soft") -> None:
        if mode not in ("hard", "soft"):
            raise ConfigError(f"SimpleStrategy mode must be 'hard' or 'soft', got {mode!r}")
        self.mode = mode
        self.name = f"{mode}-focused"

    def make_frontier(self) -> Frontier:
        if self.mode == "hard":
            return FIFOFrontier()
        return PriorityFrontier()

    def max_priority(self) -> int:
        return HIGH_PRIORITY

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> Sequence[Candidate]:
        if self.mode == "hard":
            if not judgment.relevant:
                return []  # Table 2: discard extracted links
            return LinkRun(outlinks, 0, 0, parent.url)

        priority = HIGH_PRIORITY if judgment.relevant else LOW_PRIORITY
        return LinkRun(outlinks, priority, 0, parent.url)
