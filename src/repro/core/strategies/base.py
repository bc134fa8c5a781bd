"""The strategy interface (the paper's "observer" component).

"An observer is an implementation of the web crawling strategy to be
evaluated" (paper §4).  A strategy sees each crawled page — its fetch
response, its relevance judgment, and the candidate bookkeeping it was
scheduled with — and answers with the candidates to enqueue.

Strategies are deliberately *stateless with respect to the crawl* (all
path information travels inside :class:`~repro.core.frontier.Candidate`),
which keeps them trivially reusable across simulator runs and makes the
limited-distance semantics exactly the per-path rule of the paper's
Figure 1.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, Frontier
from repro.webspace.virtualweb import FetchResponse

if TYPE_CHECKING:
    from repro.obs import Instrumentation
    from repro.urlkit.extract import LinkContext


class CrawlStrategy(ABC):
    """Decides frontier discipline and link expansion for one crawl."""

    #: Human-readable name used in reports and figure legends.
    name: str = "strategy"

    #: True for strategies that score links on textual context (anchor /
    #: around text).  The engine only computes link contexts when the
    #: active strategy asks for them, so the flag keeps the hot path of
    #: every context-blind strategy — and all golden traces — unchanged.
    wants_link_contexts: bool = False

    #: False declares ``expand`` a pure per-link map, handed only unscheduled
    #: outlinks; the re-rankers, which count or revisit every link, keep True.
    sees_scheduled_links: bool = True

    #: False for a strategy that keeps cross-page tables no checkpoint
    #: section carries: resumed it would re-rank from empty tables, so
    #: the session refuses to snapshot it (``CheckpointError``).
    resumable: bool = True

    #: Per-run telemetry hub, bound by the session before
    #: ``make_frontier`` (None on uninstrumented runs).
    instrumentation: Instrumentation | None = None

    def bind_instrumentation(self, instrumentation: Instrumentation | None) -> None:
        """Attach a :class:`repro.obs.Instrumentation` for the next run.

        The session calls this before ``make_frontier`` on instrumented
        runs.  The default just stores it.
        """
        self.instrumentation = instrumentation

    @abstractmethod
    def make_frontier(self) -> Frontier:
        """A fresh frontier of the discipline this strategy requires."""

    def seed_candidates(self, seed_urls: Sequence[str]) -> list[Candidate]:
        """Wrap seed URLs into candidates (distance 0, top priority)."""
        return [Candidate(url=url, priority=self.max_priority(), distance=0) for url in seed_urls]

    def max_priority(self) -> int:
        """The priority stamped on seeds (top band by default)."""
        return 0

    @abstractmethod
    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence["LinkContext"] | None = None,
    ) -> Sequence[Candidate]:
        """Candidates to schedule from a just-crawled page.

        Args:
            parent: the candidate that was just popped and fetched.
            response: what the virtual web answered.
            judgment: the classifier's relevance verdict for the page.
            outlinks: URLs extracted from the page (already normalised,
                duplicates removed; empty for non-OK/non-HTML pages;
                without the scheduled ones when :attr:`sees_scheduled_links` is False).
            link_contexts: per-outlink textual context (aligned with
                ``outlinks``), passed only when
                :attr:`wants_link_contexts` is True — and even then it
                may be ``None`` (e.g. callers predating the argument or
                sources that cannot produce contexts).  Every strategy
                must accept ``link_contexts=None`` and fall back to
                context-blind behaviour; that compatibility rule is what
                keeps the existing zoo and the golden fixtures
                byte-identical.

        Returns:
            Candidates the simulator should enqueue: a list, or — when
            every link of the page shares its priority, distance and
            referrer, as in all the paper's orderings — one
            :class:`~repro.core.candidate.LinkRun`, which the engine
            schedules whole, with no Python frame per link.  URLs
            already scheduled (queued or visited) are filtered out by
            the simulator, *not* by the strategy, declared or not —
            discarding and re-discovery semantics depend on that split.
            So are repeats within the page: a URL the page links twice
            is queued once, at its first occurrence.
        """

    def tick(self, step: int, frontier: Frontier) -> None:
        """Hook invoked by the simulator after every crawl step.

        The default is a no-op.  Strategies that run periodic global
        work — the distiller's intermittent hub analysis, for instance —
        override this; ``frontier`` is the live queue, so strategies
        paired with a :class:`~repro.core.frontier.ReprioritizableFrontier`
        may adjust priorities of queued URLs here.
        """
