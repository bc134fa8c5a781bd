"""Parallel (partitioned) crawling simulation.

The paper's research group also studied distributing crawls over many
machines (its reference [2], Chakrabarti et al.'s distributed discovery;
Cho & Garcia-Molina's parallel-crawler taxonomy formalised the design
space).  A language-specific *archive* crawl is a natural candidate for
partitioning — national webs are host-clustered — so this module adds
the standard model on top of the simulator:

- The URL space is partitioned **by host** (pages of one site belong to
  one crawler; see :func:`repro.webspace.query.host_partition`'s hash).
- :attr:`PartitionMode.FIREWALL`: each crawler fetches only its own
  URLs and *drops* links into foreign partitions — zero coordination,
  but pages whose only inlinks cross partitions become unreachable.
- :attr:`PartitionMode.EXCHANGE`: cross-partition links are forwarded
  to their owner — full reachability at the cost of inter-crawler
  communication, which this simulation counts.  *Every* forward is a
  message (``messages_exchanged``); how many of them the owner's dedup
  actually admitted to its frontier is tallied separately
  (``messages_accepted``).

Crawlers advance round-robin one fetch at a time, so the global crawl
order interleaves fairly and results are deterministic.  Crawls over a
:class:`~repro.faults.FaultyWebSpace` are supported via the ``faults=``
/ ``resilience=`` keywords — each engine gets the retry/breaker
machinery, and the driver reconciles its page tallies against the
engine's completed-step count, so a step that ends in retry exhaustion
or a breaker gate skip is never counted as a fetched page.

Run-level knobs live in :class:`ParallelConfig`.  Of a
:class:`~repro.core.session.SessionConfig` a partitioned run honours
``parallel``, ``instrumentation``, ``faults`` and ``resilience``;
:func:`repro.api.run_crawl` rejects every other field off its default by
name.  That rejection is final, not a gap: ``concurrency=`` (K fetch
slots on one engine's virtual clock) has no meaning across engines the
driver advances one fetch at a time, and each partition runs on the
queue its own strategy's ``make_frontier`` builds — the simulator
takes no ``frontier=``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import AbstractSet, Callable, Sequence

from repro.core.classifier import Classifier
from repro.core.engine import CrawlEngine, CrawlEvent
from repro.core.strategies.base import CrawlStrategy
from repro.core.visitor import Visitor
from repro.errors import ConfigError
from repro.schema import ConfigValue
from repro.faults.model import FaultModel, FaultyWebSpace
from repro.faults.resilience import HostBreakers, ResilienceConfig
from repro.obs import Instrumentation
from repro.obs.instrument import active as _active_instrumentation
from repro.webspace.query import host_bucket
from repro.webspace.virtualweb import VirtualWebSpace

#: Builds one strategy instance per crawler (strategies hold state).
StrategyFactory = Callable[[], CrawlStrategy]


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
        max_pages: stop after this many fetches across all crawlers
            (None = run every frontier dry).
    """

    partitions: int = 4
    mode: PartitionMode = PartitionMode.EXCHANGE
    max_pages: int | None = None

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ConfigError("partitions must be >= 1")
        if self.max_pages is not None and self.max_pages < 0:
            raise ConfigError("max_pages must be >= 0")
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


class ParallelCrawlSimulator:
    """Round-robin simulation of ``partitions`` cooperating crawlers.

    Each partition is one :class:`~repro.core.engine.CrawlEngine` over
    its own frontier, strategy instance and scheduling dedup; this class
    is the driver that advances the engines one fetch at a time
    (``engine.run(budget=1)``) and owns the cross-partition concerns —
    host-hash ownership, link forwarding (EXCHANGE) or dropping
    (FIREWALL), the global page cap and the message tallies.  Routing
    replaces the engine's inline schedule stage via its ``router`` hook
    point.
    """

    def __init__(
        self,
        web: VirtualWebSpace,
        strategy_factory: StrategyFactory,
        classifier: Classifier,
        seed_urls: Sequence[str],
        config: ParallelConfig | None = None,
        *,
        relevant_urls: AbstractSet[str] | None = None,
        instrumentation: Instrumentation | None = None,
        faults: FaultModel | None = None,
        resilience: ResilienceConfig | None = None,
    ) -> None:
        config = config or ParallelConfig()
        if not seed_urls:
            raise ConfigError("at least one seed URL is required")
        self._web = web
        self._classifier = classifier
        self._config = config
        if relevant_urls is None:
            relevant_urls = web.crawl_log.relevant_url_view(classifier.target_language)
        self._relevant = relevant_urls
        self._instrumentation = instrumentation
        self._faults = faults
        # Mirror CrawlSession: an explicit resilience config arms the
        # machinery on its own; a fault model without one gets defaults
        # (a faulty web with no retry policy would crash the engine's
        # requeue path).
        resilient = faults is not None or resilience is not None
        self._resilience = (resilience or ResilienceConfig()) if resilient else None
        self._strategies = [strategy_factory() for _ in range(config.partitions)]
        self._seed_urls = list(seed_urls)

    @property
    def config(self) -> ParallelConfig:
        return self._config

    def _build_engines(self, last_event: list[CrawlEvent | None]) -> list[CrawlEngine]:
        """One engine per partition, wired for driver-controlled stepping.

        The engines share the classifier (and its cache) but own their
        strategy, frontier, visitor and scheduling dedup.  Each engine's
        schedule stage is replaced by a router that resolves the child's
        host-hash owner: own links enter the local frontier, foreign
        links are forwarded (EXCHANGE, deduped by the owner) or dropped
        (FIREWALL).  Forwarding *is* the message — the owner's dedup
        verdict only decides the ``accepted`` tally.  ``last_event`` is
        a one-slot mailbox the driver clears before and reads after each
        single-step ``run(budget=1)`` — round-robin advances one engine
        at a time, so one slot suffices.

        With a fault model attached, all engines fetch through one
        shared :class:`~repro.faults.FaultyWebSpace` (host partitioning
        makes per-host fault state crawler-disjoint anyway, and sharing
        keeps the injection sequence identical to a serial crawl of the
        same pop order); retry policy is shared, circuit-breaker boards
        are per-engine because cooldowns are keyed on the local
        engine's pop clock.
        """
        partitions = self._config.partitions
        exchange = self._config.mode is PartitionMode.EXCHANGE
        engines: list[CrawlEngine] = []
        counters = self._counters

        def capture(event: CrawlEvent) -> None:
            last_event[0] = event

        def make_router(index: int):
            def route(child) -> None:
                owner = engines[host_bucket(child.url, partitions)]
                if owner is engines[index]:
                    owner.offer(child)
                elif exchange:
                    counters["messages"] += 1
                    if owner.offer(child):
                        counters["accepted"] += 1
                else:
                    counters["dropped"] += 1

            return route

        web: VirtualWebSpace | FaultyWebSpace = self._web
        if self._faults is not None:
            web = FaultyWebSpace(self._web, self._faults)
        resilience = self._resilience
        retry = resilience.retry if resilience is not None else None
        for index, strategy in enumerate(self._strategies):
            breakers = HostBreakers(resilience.breaker) if resilience is not None else None
            engines.append(
                CrawlEngine(
                    frontier=strategy.make_frontier(),
                    visitor=Visitor(web),
                    classifier=self._classifier,
                    strategy=strategy,
                    on_fetch=capture,
                    faults=self._faults,
                    retry=retry,
                    breakers=breakers,
                    router=make_router(index),
                    call_tick=False,
                )
            )
        return engines

    def run(self) -> ParallelResult:
        """Crawl until every partition's frontier drains (or the cap)."""
        config = self._config
        instr = _active_instrumentation(self._instrumentation)
        if instr is not None:
            self._classifier.bind_instrumentation(instr)
        self._counters = {"messages": 0, "accepted": 0, "dropped": 0}
        last_event: list[CrawlEvent | None] = [None]
        engines = self._build_engines(last_event)
        partitions = config.partitions
        for index, engine in enumerate(engines):
            if instr is not None:
                engine.strategy.bind_instrumentation(instr)
            for candidate in engine.strategy.seed_candidates(self._seed_urls):
                if host_bucket(candidate.url, partitions) == index:
                    engine.offer(candidate)

        total_pages = 0
        covered = 0
        perf = time.perf_counter
        active = True
        try:
            while active:
                active = False
                for index, engine in enumerate(engines):
                    if not engine.frontier:
                        continue
                    if config.max_pages is not None and total_pages >= config.max_pages:
                        active = False
                        break
                    active = True
                    step_started = perf()
                    # Clear the mailbox so a step that completes no
                    # fetch (retry exhaustion / breaker gate skips
                    # draining the frontier) cannot leave a stale event
                    # behind to be double-counted; reconcile against the
                    # engine's own completed-step count.
                    last_event[0] = None
                    advanced = engine.run(budget=1)
                    event = last_event[0]
                    if not advanced:
                        assert event is None
                        continue
                    assert event is not None
                    total_pages += advanced
                    if event.candidate.url in self._relevant:
                        covered += 1
                    if instr is not None:
                        instr.span(
                            "parallel",
                            "fetch",
                            start_s=step_started,
                            duration_s=perf() - step_started,
                            step=total_pages,
                            crawler=index,
                            url=event.candidate.url,
                            status=event.response.status,
                            relevant=event.judgment.relevant,
                            queue_size=len(engine.frontier),
                        )
                else:
                    continue
                break  # max_pages reached inside the for loop
        finally:
            if instr is not None:
                instr.count("parallel.pages", total_pages)
                instr.count("parallel.messages", self._counters["messages"])
                instr.count("parallel.messages_accepted", self._counters["accepted"])
                instr.count("parallel.dropped_links", self._counters["dropped"])
                instr.gauge(
                    "parallel.peak_frontier",
                    max(engine.frontier.peak_size for engine in engines),
                )
                self._classifier.bind_instrumentation(None)

        return ParallelResult(
            mode=config.mode,
            partitions=config.partitions,
            pages_crawled=total_pages,
            covered_relevant=covered,
            total_relevant=len(self._relevant),
            messages_exchanged=self._counters["messages"],
            messages_accepted=self._counters["accepted"],
            dropped_foreign_links=self._counters["dropped"],
            per_crawler_pages=tuple(engine.steps for engine in engines),
        )
