"""The limited distance strategy (paper §3.3.2, Figure 1).

"The crawler is allowed to proceed along the same path until a number of
irrelevant pages, say N, are encountered consecutively."  Each candidate
carries its *distance*: the count of consecutive irrelevant pages between
it and the latest relevant page on the path it was discovered through.

- A **relevant** page resets its children's distance to 0 (and they are
  always enqueued).
- An **irrelevant** page at distance d produces children at distance
  d + 1, which are enqueued only while d + 1 ≤ N.

Two priority modes (paper §3.3.2):

- ``prioritized=False`` — all URLs get equal priority (FIFO frontier).
- ``prioritized=True`` — priority decreases with distance, so URLs close
  to a relevant page crawl first; implemented as N + 1 priority bands
  ``priority = N - distance`` on the priority frontier.

Note the degenerate cases tying the strategy family together: N = 0 in
non-prioritized mode is exactly the hard-focused simple strategy, and an
unbounded N in prioritized mode behaves like soft-focused with a finer
priority scale.
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


class LimitedDistanceStrategy(CrawlStrategy):
    """Tunnel through at most N consecutive irrelevant pages."""

    sees_scheduled_links = False  # expand is a pure per-link map

    def __init__(self, n: int = 2, prioritized: bool = False) -> None:
        if n < 0:
            raise ConfigError(f"limited-distance parameter N must be >= 0, got {n}")
        self.n = n
        self.prioritized = prioritized
        flavor = "prioritized" if prioritized else "non-prioritized"
        self.name = f"{flavor}-limited-distance(N={n})"

    def make_frontier(self) -> Frontier:
        if self.prioritized:
            return PriorityFrontier()
        return FIFOFrontier()

    def max_priority(self) -> int:
        return self.n if self.prioritized else 0

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> Sequence[Candidate]:
        if judgment.relevant:
            child_distance = 0
        else:
            child_distance = parent.distance + 1
            if child_distance > self.n:
                return []  # path exhausted its irrelevant budget

        priority = (self.n - child_distance) if self.prioritized else 0
        return LinkRun(outlinks, priority, child_distance, parent.url)
