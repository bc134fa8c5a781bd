"""Parallel (partitioned) crawling simulation.

The paper's research group also studied distributing crawls over many
machines (its reference [2], Chakrabarti et al.'s distributed discovery;
Cho & Garcia-Molina's parallel-crawler taxonomy formalised the design
space).  A language-specific *archive* crawl is a natural candidate for
partitioning — national webs are host-clustered — so this module adds
the standard model on top of the simulator:

- The URL space is partitioned **by host** (pages of one site belong to
  one crawler, :func:`repro.webspace.query.host_bucket`'s owner).
- :attr:`PartitionMode.FIREWALL`: each crawler fetches only its own
  URLs and *drops* links into foreign partitions — zero coordination,
  but pages whose only inlinks cross partitions become unreachable.
- :attr:`PartitionMode.EXCHANGE`: cross-partition links are forwarded
  to their owner — full reachability at the cost of inter-crawler
  communication, which this simulation counts.  *Every* forward is a
  message (``messages_exchanged``); how many of them the owner's dedup
  actually admitted to its frontier is tallied separately
  (``messages_accepted``).

A partitioned crawl is an ordinary
:class:`~repro.core.session.CrawlSession` whose config carries a
:class:`ParallelConfig`: partitioning is a queue discipline, and the one
engine loop drives it.  The session builds three pieces:

- a :class:`PartitionedFrontier` holding each partition's own frontier,
  which serves the partitions round-robin, one completed crawl step
  each, so the global crawl order interleaves fairly and deterministically;
- a :class:`PartitionedStrategy`, one strategy instance per partition
  (the re-rankers' cross-page tables are per crawler), which seeds each
  partition with the seeds it owns and hands each page's expansion to
  the strategy of the partition that popped it;
- its :meth:`~PartitionedStrategy.router`, the engine's schedule stage
  for a partitioned crawl: own links enter the local frontier, foreign
  links are forwarded or dropped and counted.

Per-host circuit breakers (:class:`PartitionBreakers`) count their
cooldowns in the popping partition's own pops, as each crawler's own
pop sequence would.  The partition count and mode are the only
run-level knobs here; the page cap is ``SessionConfig.max_pages``, and
:class:`~repro.core.session.CrawlSession` names every other config
field a partitioned run refuses.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.engine import CandidateRouter
from repro.core.frontier import Candidate, Frontier
from repro.core.strategies.base import CrawlStrategy
from repro.errors import CheckpointError, ConfigError, FrontierError
from repro.faults.resilience import BreakerPolicy, HostBreakers
from repro.schema import ConfigValue
from repro.webspace.query import host_bucket

if TYPE_CHECKING:
    from repro.core.classifier import Judgment
    from repro.core.metrics import CrawlSummary
    from repro.obs import Instrumentation
    from repro.urlkit.extract import LinkContext
    from repro.webspace.virtualweb import FetchResponse

#: Builds one strategy instance per crawler (strategies hold state).
StrategyFactory = Callable[[], CrawlStrategy]

#: Why no partitioned session checkpoints, evicts or resumes.
NOT_CHECKPOINTABLE = (
    "a partitioned session cannot be checkpointed, evicted or resumed: "
    "checkpoint format v5 has no partition section"
)


class PartitionMode(str, Enum):
    """Coordination discipline between partitioned crawlers."""

    FIREWALL = "firewall"
    EXCHANGE = "exchange"

    def __str__(self) -> str:  # render as the wire value, not the member
        return self.value


@dataclass(frozen=True, slots=True)
class ParallelConfig(ConfigValue):
    """Run-level knobs of a partitioned crawl: everything independent
    of the strategy under test.

    Attributes:
        partitions: number of cooperating crawlers (host-hash owners).
        mode: coordination discipline, a :class:`PartitionMode` member.
    """

    partitions: int = 4
    mode: PartitionMode = PartitionMode.EXCHANGE

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if not isinstance(self.mode, PartitionMode):
            raise ConfigError(f"mode must be a PartitionMode, got {self.mode!r}")


@dataclass(frozen=True, slots=True)
class ParallelResult:
    """Outcome of one partitioned crawl.

    Satisfies the :class:`repro.core.summary.CrawlReport` protocol
    (``pages_crawled`` / ``coverage`` / ``to_dict``) shared with
    :class:`~repro.core.session.CrawlResult`.
    """

    mode: PartitionMode
    partitions: int
    pages_crawled: int
    covered_relevant: int
    total_relevant: int
    messages_exchanged: int
    messages_accepted: int
    dropped_foreign_links: int
    per_crawler_pages: tuple[int, ...]

    @property
    def coverage(self) -> float:
        if self.total_relevant == 0:
            return 0.0
        return self.covered_relevant / self.total_relevant

    @property
    def balance(self) -> float:
        """Load balance: min/max pages per crawler (1.0 = perfect)."""
        busiest = max(self.per_crawler_pages)
        if busiest == 0:
            return 0.0
        return min(self.per_crawler_pages) / busiest

    def to_dict(self) -> dict:
        """Report-friendly flat summary (the run's headline numbers)."""
        return {
            "mode": self.mode.value,
            "partitions": self.partitions,
            "pages_crawled": self.pages_crawled,
            "coverage": self.coverage,
            "messages_exchanged": self.messages_exchanged,
            "messages_accepted": self.messages_accepted,
            "dropped_foreign_links": self.dropped_foreign_links,
            "balance": self.balance,
        }


class PartitionedFrontier(Frontier):
    """The partitions' own frontiers as one queue.

    A push goes to the candidate's host-hash owner.  A pop serves the
    partition whose turn it is, or, once that one is empty, the next
    one in order that is not; the turn passes on only when a crawl step
    completes (:meth:`end_turn`), so a failed fetch round or a gate skip
    leaves the partition at the head of the rotation.
    """

    def __init__(self, parts: Sequence[Frontier]) -> None:
        super().__init__()
        self.parts = tuple(parts)
        #: The partition the last pop served: the crawler whose step is
        #: in progress.
        self.turn = 0
        #: Completed crawl steps per partition.
        self.steps = [0] * len(self.parts)

    def push(self, candidate: Candidate) -> None:
        self.parts[host_bucket(candidate.url, len(self.parts))].push(candidate)
        self.pushes += 1
        size = len(self)
        if size > self._peak_size:
            self._peak_size = size

    def pop(self) -> Candidate:
        parts = self.parts
        turn = self.turn
        for _ in parts:
            part = parts[turn]
            if part:
                self.turn = turn
                self.pops += 1
                return part.pop()
            turn = (turn + 1) % len(parts)
        raise FrontierError("pop from empty partitioned frontier")

    def end_turn(self) -> None:
        """The popping partition completed a crawl step: the next one's turn."""
        self.steps[self.turn] += 1
        self.turn = (self.turn + 1) % len(self.parts)

    def __len__(self) -> int:
        return sum(map(len, self.parts))

    def snapshot(self, index: dict[str, int]) -> dict:
        raise CheckpointError(NOT_CHECKPOINTABLE)

    def restore(self, state: dict, table: Sequence[str]) -> None:
        raise CheckpointError(NOT_CHECKPOINTABLE)


class PartitionedStrategy(CrawlStrategy):
    """One strategy instance per partition, behind one strategy.

    The session's engine sees a single strategy; this adapter seeds each
    partition with the seeds it owns and sends each page's ``expand`` to
    the strategy of the partition that popped the page.  Its ``tick``
    ends that partition's turn; a partition strategy's own ``tick`` is
    not called.  It also owns the cross-partition tallies that
    :meth:`router` counts and :meth:`result` reports.
    """

    resumable = False

    def __init__(self, factory: StrategyFactory, config: ParallelConfig) -> None:
        self.config = config
        self.strategies = [factory() for _ in range(config.partitions)]
        self.name = self.strategies[0].name
        self.wants_link_contexts = self.strategies[0].wants_link_contexts
        self.frontier = PartitionedFrontier(())
        self.messages = 0
        self.accepted = 0
        self.dropped = 0

    def bind_instrumentation(self, instrumentation: Instrumentation | None) -> None:
        super().bind_instrumentation(instrumentation)
        for strategy in self.strategies:
            strategy.bind_instrumentation(instrumentation)

    def make_frontier(self) -> PartitionedFrontier:
        self.frontier = PartitionedFrontier([s.make_frontier() for s in self.strategies])
        return self.frontier

    def seed_candidates(self, seed_urls: Sequence[str]) -> list[Candidate]:
        partitions = len(self.strategies)
        return [
            candidate
            for index, strategy in enumerate(self.strategies)
            for candidate in strategy.seed_candidates(seed_urls)
            if host_bucket(candidate.url, partitions) == index
        ]

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> Sequence[Candidate]:
        strategy = self.strategies[self.frontier.turn]
        return strategy.expand(parent, response, judgment, outlinks, link_contexts)

    def tick(self, step: int, frontier: Frontier) -> None:
        self.frontier.end_turn()

    def router(self, scheduled: set[str]) -> CandidateRouter:
        """The schedule stage of the engine that dedups against ``scheduled``.

        A link into the popping partition is scheduled as usual.  A
        foreign one is dropped and counted (FIREWALL), or forwarded to
        its owner (EXCHANGE): the forward is the message, and the
        owner's dedup verdict only decides the ``accepted`` tally.  Each
        URL has one owner, so the one ``scheduled`` set dedups every
        partition on its own URLs alone.
        """
        frontier = self.frontier
        partitions = len(self.strategies)
        exchange = self.config.mode is PartitionMode.EXCHANGE

        def route(child: Candidate) -> None:
            url = child.url
            foreign = host_bucket(url, partitions) != frontier.turn
            if foreign:
                if not exchange:
                    self.dropped += 1
                    return
                self.messages += 1
            if url in scheduled:
                return
            scheduled.add(url)
            frontier.push(child)
            if foreign:
                self.accepted += 1

        return route

    def result(self, summary: CrawlSummary) -> ParallelResult:
        """The run's :class:`ParallelResult`, its coverage from ``summary``."""
        return ParallelResult(
            mode=self.config.mode,
            partitions=self.config.partitions,
            pages_crawled=summary.pages_crawled,
            covered_relevant=summary.covered_relevant,
            total_relevant=summary.total_relevant,
            messages_exchanged=self.messages,
            messages_accepted=self.accepted,
            dropped_foreign_links=self.dropped,
            per_crawler_pages=tuple(self.frontier.steps),
        )

    def count_into(self, instrumentation: Instrumentation) -> None:
        """The partition tallies as ``parallel.*`` counters and gauges."""
        instrumentation.count("parallel.pages", sum(self.frontier.steps))
        instrumentation.count("parallel.messages", self.messages)
        instrumentation.count("parallel.messages_accepted", self.accepted)
        instrumentation.count("parallel.dropped_links", self.dropped)
        instrumentation.gauge(
            "parallel.peak_frontier", max(part.peak_size for part in self.frontier.parts)
        )


class PartitionBreakers(HostBreakers):
    """One breaker board whose cooldowns count partition pops.

    Each host belongs to one partition, so the board holds every
    partition's hosts apart; a host's clock is the pop count of the
    partition that owns it, read from the frontier when the engine
    asks, whatever global pop count the engine passes.
    """

    def __init__(self, policy: BreakerPolicy, frontier: PartitionedFrontier) -> None:
        super().__init__(policy)
        self._frontier = frontier

    def _partition_pops(self) -> int:
        frontier = self._frontier
        return frontier.parts[frontier.turn].pops

    def allow(self, host: str, pop_seq: int) -> bool:
        return super().allow(host, self._partition_pops())

    def record_failure(self, host: str, pop_seq: int) -> bool:
        return super().record_failure(host, self._partition_pops())
