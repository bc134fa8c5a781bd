"""Crawl sessions: the lifecycle object every run flows through.

The paper runs crawls as one-shot batch simulations; a serving system
runs them as *sessions* — long-lived, budget-stepped, evictable.  This
module is the session layer both shapes share:

- :class:`CrawlRequest` says **what** to crawl (web space or dataset,
  strategy, classifier, seeds, recall denominator);
- :class:`SessionConfig` says **how** to run it (page cap, sampling,
  checkpointing, timing, faults, resilience, telemetry, resume state);
- :class:`CrawlSession` is the lifecycle — ``open → step(budget) →
  status/report → close`` — layered directly on
  :meth:`repro.core.engine.CrawlEngine.run`'s budgeted stepping.  A
  partitioned crawl (``parallel=``) is a session too: its queue holds
  the partitions (:mod:`repro.core.parallel`).

The one-shot caller (:func:`repro.api.run_crawl`) is a thin wrapper:
open, step to exhaustion, report, close.  The serving layer
(:mod:`repro.serve`) holds sessions open across requests and *evicts*
idle ones through :meth:`CrawlSession.snapshot` — the same
:class:`~repro.core.checkpoint.CheckpointState` machinery the kill/
resume differential suite pins, so an evicted-and-resumed session
replays byte-identical to one that never left memory.

Scheduling contract (this is where the paper's discard semantics live):

- a URL enters the frontier at most once — the engine keeps a
  ``scheduled`` set of everything ever enqueued;
- a URL *discarded* by the strategy is **not** marked scheduled, so a
  later discovery along a different path may still enqueue it.  That is
  what makes the limited-distance rule a property of crawl *paths*
  (Figure 1) rather than of pages.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from collections.abc import Set as AbstractSet
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.adversary import (
    AdversarialWebSpace,
    AdversaryModel,
    DefenseConfig,
    DefensePolicy,
)
from repro.core.candidate import is_list_of
from repro.core.checkpoint import (
    STRUCTURAL_FAULTS,
    CheckpointState,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.classifier import Classifier, ClassifierMode
from repro.core.engine import (
    CheckpointHook,
    CrawlEngine,
    EngineHook,
    EngineLoopState,
    EngineStep,
    FetchCallback,
)
from repro.core.metrics import CrawlSummary, MetricsRecorder, MetricSeries
from repro.core.frontier import Frontier, ReprioritizableFrontier
from repro.core.parallel import (
    NOT_CHECKPOINTABLE,
    ParallelConfig,
    ParallelResult,
    PartitionBreakers,
    PartitionedStrategy,
)
from repro.core.politeness import HostQueueFrontier, HostQueues
from repro.core.spilling import SpillConfig, SpillingFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.core.strategies.registry import get_strategy
from repro.core.timing import TimingModel, VirtualClock
from repro.core.visitor import Visitor
from repro.errors import (
    CheckpointError,
    ConfigError,
    ReproError,
    SessionError,
    SimulationError,
)
from repro.faults.model import FaultModel, FaultyWebSpace
from repro.faults.resilience import HostBreakers, ResilienceConfig, ResilienceStats
from repro.obs import Instrumentation
from repro.obs.hooks import ResilienceCountersHook, StepSpanHook
from repro.obs.instrument import active as _active_instrumentation
from repro.schema import ConfigValue
from repro.urlkit.normalize import intern_urls
from repro.webspace.virtualweb import VirtualWebSpace


@dataclass(frozen=True, slots=True)
class CrawlResult:
    """Everything a finished simulation reports.

    Satisfies the :class:`repro.core.summary.CrawlReport` protocol
    (``pages_crawled`` / ``coverage`` / ``to_dict``), the shape shared
    with :class:`repro.core.parallel.ParallelResult` so report code can
    render either without isinstance checks.
    """

    strategy: str
    series: MetricSeries
    summary: CrawlSummary
    wall_seconds: float
    pages_crawled: int
    frontier_peak: int
    #: Resilient-pipeline tallies (:meth:`ResilienceStats.to_dict`
    #: shape) when the run used the resilient pipeline; None on clean
    #: runs.
    resilience: dict | None = None
    #: Adversary-layer observability when the run attached an adversary
    #: or armed defenses: injection tallies, defense stats, redirect
    #: counters.  None on clean runs, and deliberately **excluded** from
    #: :func:`report_payload` — like ``wall_seconds``, it describes the
    #: scenario infrastructure, not the crawl's reported metrics.
    adversary: dict | None = None

    @property
    def final_harvest_rate(self) -> float:
        return self.summary.final_harvest_rate

    @property
    def final_coverage(self) -> float:
        return self.summary.final_coverage

    @property
    def coverage(self) -> float:
        """Protocol alias of :attr:`final_coverage`."""
        return self.summary.final_coverage

    def to_dict(self) -> dict:
        """Report-friendly flat summary (the run's headline numbers)."""
        return {
            "strategy": self.strategy,
            "pages_crawled": self.summary.pages_crawled,
            "final_harvest_rate": self.summary.final_harvest_rate,
            "final_coverage": self.summary.final_coverage,
            "max_queue_size": self.summary.max_queue_size,
        }


def report_payload(result: CrawlResult) -> dict:
    """The deterministic report of a run, as plain JSON-able dicts.

    This is the payload "byte-identical" claims are made over: the
    headline numbers, the full summary, and the sampled series — every
    field a function of the crawl's fetch sequence alone.  Wall-clock
    time and infrastructure tallies (checkpoint writes, whether the
    resilient pipeline happened to be armed) are deliberately excluded:
    a session that was evicted and resumed must produce the same payload
    as a one-shot run, and those fields are properties of the serving
    infrastructure, not of the crawl.
    """
    return {
        "result": result.to_dict(),
        "summary": asdict(result.summary),
        "series": result.series.to_dict(),
    }


def needs_bodies(mode: ClassifierMode, extract_from_body: bool = False) -> bool:
    """Whether a run reads page bodies, so its web must synthesize them:
    META / DETECTOR judge the HTML, ``extract_from_body`` parses links
    out of it; every other run works from the crawl-log record alone."""
    return extract_from_body or mode in (ClassifierMode.META, ClassifierMode.DETECTOR)


@dataclass(frozen=True)
class CrawlRequest:
    """What to crawl: the workload half of a session, in one object.

    Exactly one of ``web`` / ``dataset`` supplies the space.  A
    ``dataset`` also defaults ``classifier`` (the charset classifier of
    its target language), ``seeds`` (the captured seed list) and
    ``relevant_urls`` (the explicit-recall denominator); without one,
    the denominator is the page source's memoised
    ``relevant_url_view`` for the classifier's target language.

    ``strategy`` is a :class:`CrawlStrategy` instance, a zero-arg
    factory, or a registered name (``params`` are the name's constructor
    keywords, e.g. ``CrawlRequest(strategy="limited-distance",
    params={"n": 2})``).
    """

    strategy: CrawlStrategy | Callable[[], CrawlStrategy] | str
    params: Mapping[str, Any] = field(default_factory=dict)
    web: VirtualWebSpace | None = None
    dataset: Any = None
    classifier: Classifier | None = None
    seeds: Sequence[str] | None = None
    relevant_urls: AbstractSet[str] | None = None

    def build_strategy(self) -> CrawlStrategy:
        """Resolve ``strategy`` to an instance (registry names allowed)."""
        strategy = self.strategy
        if isinstance(strategy, str):
            return get_strategy(strategy, **dict(self.params))
        if self.params:
            raise ConfigError("params= only combines with a registry-name strategy")
        if isinstance(strategy, CrawlStrategy):
            return strategy
        built = strategy()
        if not isinstance(built, CrawlStrategy):
            raise ConfigError("strategy factory did not produce a CrawlStrategy")
        return built

    def strategy_factory(self) -> Callable[[], CrawlStrategy]:
        """Resolve ``strategy`` to a per-partition factory (parallel runs)."""
        strategy = self.strategy
        if isinstance(strategy, CrawlStrategy):
            raise ConfigError(
                "a parallel crawl needs a strategy *factory* (a class, "
                "zero-arg callable, or registered name), not an instance "
                "— each partition builds its own"
            )
        if isinstance(strategy, str):
            name, params = strategy, dict(self.params)
            get_strategy(name, **params)  # fail fast on an unknown name
            return lambda: get_strategy(name, **params)
        return strategy

    def resolve(self, extract_from_body: bool = False) -> "CrawlRequest":
        """A copy with every dataset default applied and validated.

        Building the web space is the expensive part of a session, so
        sessions call this from :meth:`CrawlSession.open`, not at
        construction, passing their config's ``extract_from_body``
        (:func:`needs_bodies` decides whether the web carries bodies).
        """
        web = self.web
        classifier = self.classifier
        seeds = self.seeds
        relevant_urls = self.relevant_urls
        if self.dataset is not None:
            if web is not None:
                raise ConfigError("pass either web= or dataset=, not both")
            if classifier is None:
                classifier = Classifier(self.dataset.target_language)
            if needs_bodies(classifier.mode, extract_from_body):
                from repro.graphgen.htmlsynth import HtmlSynthesizer

                web = self.dataset.web(body_synthesizer=HtmlSynthesizer())
            else:
                web = self.dataset.web()
            if seeds is None:
                seeds = tuple(self.dataset.seed_urls)
            if relevant_urls is None:
                relevant_urls = self.dataset.relevant_urls()
        if web is None:
            raise ConfigError("a crawl session needs a web= space or a dataset=")
        if classifier is None:
            raise ConfigError(
                "a crawl session needs a classifier= (or a dataset= to default from)"
            )
        if seeds is None:
            raise ConfigError("a crawl session needs seeds= (or a dataset= to default from)")
        if relevant_urls is None:
            relevant_urls = web.crawl_log.relevant_url_view(classifier.target_language)
        return replace(
            self,
            web=web,
            dataset=None,
            classifier=classifier,
            seeds=tuple(seeds),
            relevant_urls=relevant_urls,
        )


@dataclass(frozen=True)
class SessionConfig(ConfigValue):
    """How a session runs: every run-shaping knob in one typed object.

    A config is a value: the timing, fault and adversary models it names
    are frozen settings, and every piece of run state they imply — the
    clock, injection counters, redirect chains — is built fresh by
    :meth:`CrawlSession.open`.  One config may therefore serve any
    number of runs, in sequence or interleaved, each crawling exactly as
    it would alone.  Only the :data:`LIVE_FIELDS` — ``on_fetch``,
    ``instrumentation``, ``hooks`` and ``resume_from`` — name live
    objects that are the caller's to share or not.

    Everything else is its own JSON (:mod:`repro.schema`):
    :meth:`to_json` / :meth:`from_json` / :meth:`load` are the wire
    ``config`` object, the CLI's ``--config`` file and, field by field,
    the CLI's run flags.  A live field has no JSON form.

    ``parallel`` partitions the crawl over host-hash crawlers
    (:class:`~repro.core.parallel.ParallelConfig`); such a session
    reports a :class:`~repro.core.parallel.ParallelResult` and refuses
    the fields :data:`PARTITION_REFUSALS` names.
    """

    #: Stop after this many fetches (None = run the frontier dry, the
    #: paper's setting).
    max_pages: int | None = None
    #: Metric sampling period in pages.
    sample_interval: int = 500
    #: Parse outlinks from synthesized HTML instead of reading them from
    #: the crawl-log record.
    extract_from_body: bool = False
    #: Write a resumable checkpoint every this many crawled pages (None
    #: = never).  Requires ``checkpoint_path``.
    checkpoint_every: int | None = None
    #: Destination file of the periodic checkpoint (each write
    #: atomically replaces the previous one).
    checkpoint_path: str | Path | None = field(
        default=None, metadata={"path": True, "flag": "checkpoint"}
    )
    #: Clock settings; each run keeps time on its own
    #: :meth:`TimingModel.clock`.
    timing: TimingModel | None = None
    #: Number of concurrent fetch slots — the engine's issue policy.
    #: None completes every fetch as it is issued (the paper's
    #: setting); an integer K >= 1 keeps up to K fetches in flight on
    #: the virtual clock, with ``timing`` defaulting to the stock
    #: :class:`TimingModel` when unset.
    concurrency: int | None = None
    #: Called with each fetch's :class:`~repro.core.engine.CrawlEvent`.
    on_fetch: FetchCallback | None = field(default=None, metadata={"live": True})
    #: Telemetry sink of spans, counters and the trace file.
    instrumentation: Instrumentation | None = field(default=None, metadata={"live": True})
    #: Fault injection: transient errors, timeouts, truncation, outages.
    faults: FaultModel | None = None
    #: Retry, backoff, requeue and circuit-breaker policy (default on
    #: when faults or checkpointing are configured).
    resilience: ResilienceConfig | None = None
    #: Content-level adversary layer (spider traps, redirect chains,
    #: soft-404s, aliases, charset lies).  Wrapped *inside* the fault
    #: layer, so faults also strike synthetic adversarial URLs.
    adversary: AdversaryModel | None = None
    #: Engine countermeasures (:class:`~repro.adversary.DefenseConfig`).
    #: An all-default config is inert — no policy is built.
    defenses: DefenseConfig | None = field(
        default=None, metadata={"preset": DefenseConfig.standard}
    )
    #: The URL queue the crawl runs on.  The strategy decides link
    #: expansion, this field decides the queue: None keeps the
    #: strategy's own discipline; a
    #: :class:`~repro.core.spilling.SpillConfig` runs on a disk-spilling
    #: priority queue whose pop order, ``(-priority, push order)``, does
    #: not depend on what is on disk, so it checkpoints like any other
    #: (over a store-backed web space the cold tail spills as URL ids
    #: into the store's arena instead of URL strings);
    #: :class:`~repro.core.politeness.HostQueues` runs on per-server
    #: round-robin queues.  Neither can re-rank a queued URL, so a
    #: strategy whose own queue is a
    #: :class:`~repro.core.frontier.ReprioritizableFrontier` is a
    #: :class:`~repro.errors.ConfigError` at ``open`` with either.
    frontier: SpillConfig | HostQueues | None = None
    #: Checkpoint state (or file) to continue from.
    resume_from: CheckpointState | str | Path | None = field(
        default=None, metadata={"live": True}
    )
    #: Engine stage observers, run after the session's own.
    hooks: tuple[EngineHook, ...] = field(default=(), metadata={"live": True})
    #: Keep every injected fault in ``faulty_web.journal``.
    record_fault_journal: bool = field(default=False, metadata={"flag": False})
    #: Keep every adversary decision in ``adversarial_web.journal``.
    record_adversary_journal: bool = field(default=False, metadata={"flag": False})
    #: Partition the crawl over this many host-hash crawlers.
    parallel: ParallelConfig | None = field(default=None, metadata={"flag": False})

    def __post_init__(self) -> None:
        if self.sample_interval < 1:
            raise ConfigError(f"sample_interval must be >= 1, got {self.sample_interval!r}")
        if self.max_pages is not None and self.max_pages < 0:
            raise ConfigError(f"max_pages must be >= 0, got {self.max_pages!r}")
        # Accept any sequence of hooks; store the canonical tuple.
        if not isinstance(self.hooks, tuple):
            object.__setattr__(self, "hooks", tuple(self.hooks))


#: The :class:`SessionConfig` fields that name live, process-local
#: objects: they have no JSON form and cannot ride a sweep spec.
LIVE_FIELDS = tuple(spec.name for spec in fields(SessionConfig) if spec.metadata.get("live"))

_ONE_CLOCK = "K fetch slots and the virtual clock belong to one crawler, not to P of them"
_NO_JOURNAL = "a ParallelResult carries no journal"

#: Why a partitioned session refuses each :class:`SessionConfig` field
#: it does not honour, when that field is off its default.  The rest —
#: ``parallel``, ``max_pages``, ``faults``, ``resilience``,
#: ``instrumentation``, ``on_fetch`` and ``hooks`` — compose with it.
PARTITION_REFUSALS = {
    "sample_interval": "a ParallelResult carries no sampled series",
    "extract_from_body": "no partitioned crawl is pinned on body-parsed links",
    "checkpoint_every": NOT_CHECKPOINTABLE,
    "checkpoint_path": NOT_CHECKPOINTABLE,
    "resume_from": NOT_CHECKPOINTABLE,
    "timing": _ONE_CLOCK,
    "concurrency": _ONE_CLOCK,
    "adversary": "a ParallelResult has no adversary section",
    "defenses": "a ParallelResult has no adversary section",
    "frontier": "the partitions are the queue: each runs on its own strategy's frontier",
    "record_fault_journal": _NO_JOURNAL,
    "record_adversary_journal": _NO_JOURNAL,
}


@dataclass(frozen=True, slots=True)
class SessionStatus:
    """A point-in-time view of one session, cheap enough to poll."""

    state: str
    steps: int
    queue_size: int
    scheduled: int
    done: bool
    retries: int = 0
    requeued: int = 0
    dropped: int = 0
    breaker_skips: int = 0
    checkpoints_written: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _require_resumable(strategy: CrawlStrategy) -> None:
    if isinstance(strategy, PartitionedStrategy):
        raise CheckpointError(NOT_CHECKPOINTABLE)
    if not strategy.resumable:
        raise CheckpointError(
            f"{strategy.name} keeps cross-page tables that no checkpoint section "
            "carries: it cannot be checkpointed, evicted or resumed"
        )


def check_step_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ConfigError(f"step budget must be >= 0 or None, got {budget}")


class CrawlSession:
    """One crawl as a lifecycle: ``open → step(budget) → report → close``.

    The session owns the component graph the Figure-2 simulator wires —
    visitor, classifier, strategy, frontier, recorder — and drives it
    through :meth:`CrawlEngine.run`'s budgeted stepping, so callers
    choose the cadence: one-shot (``run()``), interactive
    (``step(budget)`` until :attr:`done`), or served (a
    :class:`~repro.serve.SessionManager` stepping many sessions).

    Eviction contract: :meth:`snapshot` captures the full resumable
    state **at a step boundary** (between ``step()`` calls the engine's
    loop state is always consistent — an in-flight fetch round's retries
    are either fully recorded or will be fully replayed).  A session
    rebuilt with ``SessionConfig(resume_from=snapshot)`` over the same
    request continues byte-identically — including in-flight requeue
    budgets, fault-injection indices and breaker cooldowns — which is
    the same guarantee the kill/resume differential suite pins.

    Sessions are not thread-safe; the serving layer serialises access
    per session.
    """

    def __init__(self, request: CrawlRequest, config: SessionConfig | None = None) -> None:
        if not isinstance(request, CrawlRequest):
            raise ConfigError(f"CrawlSession needs a CrawlRequest, got {type(request).__name__}")
        config = config or SessionConfig()
        if config.parallel is not None:
            # Before the resume file is read: a partitioned resume_from
            # is refused by name, not by whatever reading it raises.
            for spec in fields(SessionConfig):
                reason = PARTITION_REFUSALS.get(spec.name)
                if reason is not None and getattr(config, spec.name) != spec.default:
                    raise ConfigError(
                        f"{spec.name}= does not combine with a partitioned "
                        f"(parallel=) run: {reason}"
                    )
        if config.checkpoint_every is not None:
            if config.checkpoint_every < 1:
                raise ConfigError("checkpoint_every must be >= 1")
            if config.checkpoint_path is None:
                raise ConfigError("checkpoint_every requires checkpoint_path")
        if not isinstance(config.frontier, (SpillConfig, HostQueues, type(None))):
            raise ConfigError(
                "frontier= must be a SpillConfig, HostQueues() or None, got "
                f"{type(config.frontier).__name__}"
            )
        resume = config.resume_from
        #: What a malformed section is reported against: the file, when
        #: the state came from one.
        self._resume_source = "checkpoint state"
        if isinstance(resume, (str, Path)):
            self._resume_source = str(resume)
            resume = read_checkpoint(resume)
        self._request = request
        self._config = config
        self._resume_state = resume
        if config.concurrency is not None and config.concurrency < 1:
            raise ConfigError("concurrency must be >= 1")
        resilient = (
            config.faults is not None
            or config.resilience is not None
            or config.checkpoint_every is not None
            or resume is not None
        )
        self._resilience = (config.resilience or ResilienceConfig()) if resilient else None
        self._state = "new"
        self._wall = 0.0
        #: The fault-injecting web wrapper (None until open / on clean
        #: runs) — tests read its journal and injection tallies.
        self.faulty_web: FaultyWebSpace | None = None
        #: The adversarial web wrapper (None until open / without an
        #: adversary) — tests read its journal and injection tallies.
        self.adversarial_web: AdversarialWebSpace | None = None
        self._defenses: DefensePolicy | None = None
        self._clock: VirtualClock | None = None
        self._engine: CrawlEngine | None = None
        #: The run's reported name: the strategy's, decorated by the
        #: ``frontier=`` choice (``spilling(…, mem=N)`` / ``polite(…)``).
        self._label = ""
        self._classifier: Classifier | None = None
        self._visitor: Visitor | None = None
        self._recorder: MetricsRecorder | None = None
        self._frontier: Frontier | None = None
        self._scheduled: set[str] | None = None
        self._breakers: HostBreakers | None = None
        self._instr: Instrumentation | None = None

    # -- lifecycle ------------------------------------------------------

    @property
    def state(self) -> str:
        """``"new"`` (not yet opened), ``"open"``, or ``"closed"``."""
        return self._state

    def open(self) -> "CrawlSession":
        """Build the component graph and seed (or resume) the frontier.

        Idempotent while open; called implicitly by the first ``step``/
        ``report``/``snapshot``.  This is where the expensive work
        happens — dataset webs are materialised here, not at
        construction.
        """
        if self._state == "open":
            return self
        if self._state == "closed":
            raise SessionError("cannot reopen a closed crawl session")
        config = self._config
        request = self._request.resolve(config.extract_from_body)
        strategy: CrawlStrategy
        if config.parallel is not None:
            strategy = PartitionedStrategy(request.strategy_factory(), config.parallel)
        else:
            strategy = request.build_strategy()
        if not request.seeds:
            # The partitioned API's error for it (tests/test_core_parallel.py).
            error = SimulationError if config.parallel is None else ConfigError
            raise error("at least one seed URL is required")
        if config.checkpoint_every is not None or config.resume_from is not None:
            _require_resumable(strategy)
        assert request.web is not None and request.classifier is not None

        instr = _active_instrumentation(config.instrumentation)
        web: VirtualWebSpace | AdversarialWebSpace | FaultyWebSpace = request.web
        adversarial: AdversarialWebSpace | None = None
        if config.adversary is not None:
            if config.extract_from_body and not config.adversary.profile.is_empty:
                raise ConfigError(
                    "extract_from_body= cannot combine with a non-empty adversary "
                    "profile: body-parsed links bypass the adversary's outlink "
                    "rewriting, so traps and aliases would never be reachable"
                )
            adversarial = AdversarialWebSpace(
                web, config.adversary, record_journal=config.record_adversary_journal
            )
            web = adversarial
        self.adversarial_web = adversarial
        faulty: FaultyWebSpace | None = None
        if config.faults is not None:
            # Faults wrap *outside* the adversary: a flaky host is flaky
            # on its trap and alias URLs too.
            faulty = FaultyWebSpace(
                web, config.faults, record_journal=config.record_fault_journal
            )
            web = faulty
        self.faulty_web = faulty
        defenses: DefensePolicy | None = None
        if config.defenses is not None and config.defenses.enabled:
            defenses = DefensePolicy(config.defenses)
        self._defenses = defenses
        # Fetch slots are scheduled on the clock; default one so
        # concurrency=K alone is a complete configuration.
        timing = config.timing
        if timing is None and config.concurrency is not None:
            timing = TimingModel()
        self._clock = timing.clock() if timing is not None else None
        visitor = Visitor(
            web,
            extract_from_body=config.extract_from_body,
            instrumentation=instr,
        )
        classifier = request.classifier
        if instr is not None:
            classifier.bind_instrumentation(instr)
            strategy.bind_instrumentation(instr)
        # Always called, whichever queue the config names: it is the
        # strategy's per-run reset point.
        frontier = strategy.make_frontier()
        label = strategy.name
        choice = config.frontier
        if choice is not None and isinstance(frontier, ReprioritizableFrontier):
            raise ConfigError(
                f"{strategy.name} re-ranks the URLs it has queued, and a "
                f"{type(choice).__name__} frontier cannot re-rank: its updates "
                "would miss the queue; run it with frontier=None"
            )
        if isinstance(choice, SpillConfig):
            page_source = request.web.crawl_log
            if not hasattr(page_source, "id_of"):
                page_source = None  # in-memory log: spill URL strings
            frontier = SpillingFrontier(
                memory_limit=choice.memory_limit,
                spill_dir=choice.spill_dir,
                instrumentation=instr,
                page_source=page_source,
            )
            label = f"spilling({label}, mem={choice.memory_limit})"
        elif isinstance(choice, HostQueues):
            frontier = HostQueueFrontier()
            label = f"polite({label})"
        recorder = MetricsRecorder(
            name=label,
            relevant_urls=request.relevant_urls,
            sample_interval=config.sample_interval,
        )

        resilience = self._resilience
        scheduled: set[str] = set()
        breakers: HostBreakers | None = None
        router = None
        if isinstance(strategy, PartitionedStrategy):
            router = strategy.router(scheduled)
            if resilience is not None and resilience.breaker is not None:
                breakers = PartitionBreakers(resilience.breaker, strategy.frontier)
        elif resilience is not None and resilience.breaker is not None:
            breakers = HostBreakers(resilience.breaker)

        rstate = EngineLoopState()
        resume = self._resume_state
        if resume is not None:
            self._apply_resume(
                resume,
                label,
                frontier,
                recorder,
                visitor,
                scheduled,
                faulty,
                breakers,
                adversarial,
                defenses,
            )
            with self._restoring("loop"):
                rstate = EngineLoopState.from_dict(resume.loop)

        self._label = label
        self._classifier = classifier
        self._visitor = visitor
        self._recorder = recorder
        self._frontier = frontier
        self._scheduled = scheduled
        self._breakers = breakers
        self._instr = instr
        engine = CrawlEngine(
            frontier=frontier,
            visitor=visitor,
            classifier=classifier,
            strategy=strategy,
            scheduled=scheduled,
            recorder=recorder,
            max_pages=config.max_pages,
            clock=self._clock,
            concurrency=config.concurrency,
            on_fetch=config.on_fetch,
            faults=config.faults,
            retry=resilience.retry if resilience is not None else None,
            breakers=breakers,
            defenses=defenses,
            hooks=self._build_hooks(instr, resilience, rstate),
            loop_state=rstate,
            router=router,
        )
        self._engine = engine
        if resume is not None:
            # The sched section and the issue policy must agree: a
            # checkpoint with in-flight state needs fetch slots to
            # replay it into, and a slotted resume without its section
            # would silently drop issued fetches.
            if resume.sched is not None:
                if engine.concurrency is None:
                    raise CheckpointError(
                        "checkpoint carries in-flight scheduler state; resume "
                        "with the same concurrency= configuration"
                    )
                with self._restoring("sched"):
                    engine.restore_events(resume.sched)
            elif engine.concurrency is not None:
                raise CheckpointError(
                    "checkpoint was taken by the round-based engine; it cannot "
                    "resume under concurrency= — rerun it round-based"
                )
        else:
            engine.seed(list(request.seeds))
        self._state = "open"
        return self

    def step(self, budget: int | None = None) -> int:
        """Crawl up to ``budget`` pages (None = to exhaustion / page cap).

        Returns the number of crawl steps completed by this call; 0 when
        the session is already :attr:`done`.  A negative budget is a ConfigError.
        """
        check_step_budget(budget)
        self.open()
        assert self._engine is not None
        started = time.perf_counter()
        try:
            return self._engine.run(budget)
        finally:
            self._wall += time.perf_counter() - started

    @property
    def steps(self) -> int:
        """Completed crawl steps so far (0 before open)."""
        return self._engine.steps if self._engine is not None else 0

    @property
    def frontier(self) -> Frontier | None:
        """The live URL queue the crawl runs on (None before open)."""
        return self._frontier

    @property
    def done(self) -> bool:
        """True once the frontier drained or the page cap was reached."""
        if self._engine is None:
            return False
        if not self._engine.has_pending_work:
            return True
        max_pages = self._config.max_pages
        return max_pages is not None and self._engine.steps >= max_pages

    def status(self) -> SessionStatus:
        """A cheap point-in-time view (valid in every lifecycle state)."""
        engine = self._engine
        if engine is None:
            return SessionStatus(
                state=self._state, steps=0, queue_size=0, scheduled=0, done=False
            )
        loop = engine.state
        return SessionStatus(
            state=self._state,
            steps=loop.steps,
            queue_size=len(engine.frontier),
            scheduled=len(engine.scheduled),
            done=self.done,
            retries=loop.retries,
            requeued=loop.requeued,
            dropped=loop.dropped,
            breaker_skips=loop.breaker_skips,
            checkpoints_written=loop.checkpoints_written,
        )

    def report(self) -> CrawlResult | ParallelResult:
        """The run's :class:`CrawlResult` as of the current step count.

        Callable mid-crawl (a progress report) or after :attr:`done`
        (the final report); does not close the session.  A partitioned
        session reports a :class:`~repro.core.parallel.ParallelResult`.
        """
        self.open()
        assert (
            self._recorder is not None
            and self._frontier is not None
            and self._engine is not None
            and self._visitor is not None
        )
        series, summary = self._recorder.finish(self._label)
        strategy = self._engine.strategy
        if isinstance(strategy, PartitionedStrategy):
            return strategy.result(summary)
        resilience_dict: dict | None = None
        if self._resilience is not None:
            rstate = self._engine.state
            resilience_dict = ResilienceStats(
                retries=rstate.retries,
                requeued=rstate.requeued,
                dropped=rstate.dropped,
                fetches_failed=self._visitor.fetches_failed,
                breaker_skips=rstate.breaker_skips,
                breaker_opened=self._breakers.opened if self._breakers is not None else 0,
                checkpoints_written=rstate.checkpoints_written,
                faults_injected=dict(self.faulty_web.injected)
                if self.faulty_web is not None
                else {},
            ).to_dict()
        adversary_dict: dict | None = None
        if self.adversarial_web is not None or self._defenses is not None:
            rstate = self._engine.state
            adversary_dict = {
                "injected": dict(self.adversarial_web.injected)
                if self.adversarial_web is not None
                else {},
                "defense_stats": dict(self._defenses.stats)
                if self._defenses is not None
                else {},
                "redirect_hops": rstate.redirect_hops,
                "redirect_aborts": rstate.redirect_aborts,
            }
        return CrawlResult(
            strategy=self._label,
            series=series,
            summary=summary,
            wall_seconds=self._wall,
            pages_crawled=self._recorder.steps,
            frontier_peak=self._frontier.peak_size,
            resilience=resilience_dict,
            adversary=adversary_dict,
        )

    def close(self) -> None:
        """Flush telemetry and release the frontier.  Idempotent."""
        if self._state != "open":
            self._state = "closed"
            return
        self._state = "closed"
        instr = self._instr
        engine = self._engine
        assert engine is not None and self._frontier is not None
        if instr is not None:
            instr.flush()
            instr.gauge("frontier.peak_size", self._frontier.peak_size)
            instr.gauge("frontier.pushes", self._frontier.pushes)
            instr.gauge("frontier.pops", self._frontier.pops)
            instr.count("simulator.pages", engine.state.steps)
            assert self._classifier is not None
            cache = self._classifier.cache
            if cache is not None:
                for key, value in cache.stats().items():
                    instr.gauge(f"classifier.cache.{key}", value)
            if self._breakers is not None:
                instr.gauge("breaker.open_hosts", self._breakers.open_hosts())
                instr.gauge("breaker.opened", self._breakers.opened)
            if self.faulty_web is not None:
                for kind, injected in self.faulty_web.injected.items():
                    instr.gauge(f"faults.injected.{kind}", injected)
            if isinstance(engine.strategy, PartitionedStrategy):
                engine.strategy.count_into(instr)
            self._classifier.bind_instrumentation(None)
        self._frontier.close()

    def run(self, budget: int | None = None) -> CrawlResult | ParallelResult:
        """The one-shot path: open, step, report, close — in one call."""
        self.open()
        try:
            self.step(budget)
            return self.report()
        finally:
            self.close()

    # -- eviction / checkpointing --------------------------------------

    def snapshot(self) -> CheckpointState:
        """The session's full resumable state, at the current step boundary.

        This is what eviction serialises.  Unlike the periodic
        :class:`~repro.core.engine.CheckpointHook` cadence, taking a
        snapshot does **not** count into ``checkpoints_written`` — an
        eviction is a property of the serving infrastructure, not of the
        run, and the resumed session's tallies must stay identical to an
        uninterrupted run's.
        """
        self.open()
        assert self._engine is not None
        _require_resumable(self._engine.strategy)
        rstate = self._engine.state
        return self._checkpoint_state(rstate)

    @property
    def resumable(self) -> bool:
        """False when :meth:`snapshot` raises (``CrawlStrategy.resumable``)."""
        self.open()
        return self._engine.strategy.resumable

    def save_checkpoint(self, path: str | Path) -> None:
        """Atomically write :meth:`snapshot` to ``path`` (checkpoint format v5)."""
        write_checkpoint(path, self.snapshot())

    def _checkpoint_state(self, rstate: EngineLoopState) -> CheckpointState:
        assert (
            self._frontier is not None
            and self._scheduled is not None
            and self._recorder is not None
            and self._visitor is not None
            and self._engine is not None
        )
        engine = self._engine
        # The URL table: the scheduled set, then whatever else the
        # frontier names (the snapshot extends ``index`` as it goes).
        scheduled = len(self._scheduled)
        index = dict(zip(self._scheduled, range(scheduled)))
        frontier = self._frontier.snapshot(index)
        return CheckpointState(
            strategy=self._label,
            steps=rstate.steps,
            urls=list(index),
            scheduled=scheduled,
            frontier=frontier,
            recorder=self._recorder.snapshot(),
            visitor=self._visitor.snapshot(),
            loop=rstate.to_dict(),
            timing=self._clock.snapshot() if self._clock is not None else None,
            faults=self.faulty_web.snapshot() if self.faulty_web is not None else None,
            breakers=self._breakers.snapshot() if self._breakers is not None else None,
            sched=engine.snapshot_events() if engine.concurrency is not None else None,
            adversary=self.adversarial_web.snapshot()
            if self.adversarial_web is not None
            else None,
            defenses=self._defenses.snapshot() if self._defenses is not None else None,
        )

    # -- internals ------------------------------------------------------

    def _build_hooks(
        self,
        instr: Instrumentation | None,
        resilience: ResilienceConfig | None,
        rstate: EngineLoopState,
    ) -> tuple[EngineHook, ...]:
        """Decide which stage observers this session attaches.

        - Clean instrumented runs get the span/stage-timer profile.
        - Resilient instrumented runs get the event counters (their
          per-step cost budget has no room for span assembly).
        - A configured checkpoint cadence attaches the checkpoint hook,
          whose writer closure owns serialisation and accounting.
        - Caller-supplied hooks run last, in the order given.
        """
        hooks: list[EngineHook] = []
        if instr is not None:
            if resilience is None:
                hooks.append(StepSpanHook(instr))
            else:
                hooks.append(ResilienceCountersHook(instr))
        checkpoint_every = self._config.checkpoint_every
        if checkpoint_every is not None:

            def write_periodic(step: EngineStep) -> None:
                # Count the write before serialising so the checkpoint's
                # own tally includes it — a resumed run then reports the
                # same total as an uninterrupted one.
                rstate.steps = step.steps
                rstate.checkpoints_written += 1
                assert self._config.checkpoint_path is not None
                write_checkpoint(self._config.checkpoint_path, self._checkpoint_state(rstate))
                if instr is not None:
                    instr.count("checkpoint.writes")

            hooks.append(CheckpointHook(checkpoint_every, write_periodic))
        hooks.extend(self._config.hooks)
        return tuple(hooks)

    def _apply_resume(
        self,
        resume: CheckpointState,
        label: str,
        frontier: Frontier,
        recorder: MetricsRecorder,
        visitor: Visitor,
        scheduled: set[str],
        faulty: FaultyWebSpace | None,
        breakers: HostBreakers | None,
        adversarial: AdversarialWebSpace | None = None,
        defenses: DefensePolicy | None = None,
    ) -> None:
        """Load a checkpoint into the freshly built run components."""
        if resume.strategy and resume.strategy != label:
            raise CheckpointError(
                f"checkpoint was taken by strategy {resume.strategy!r}; "
                f"cannot resume it with {label!r}"
            )
        with self._restoring("urls"):
            if not is_list_of(resume.urls, str):
                raise CheckpointError("the URL table is not a list of strings")
            table = intern_urls(resume.urls)
        with self._restoring("scheduled"):
            if type(resume.scheduled) is not int:
                raise CheckpointError("the count of scheduled URLs is not an integer")
            if not 0 <= resume.scheduled <= len(table):
                raise CheckpointError(
                    f"a count of {resume.scheduled} scheduled URLs does not fit "
                    f"the {len(table)}-entry URL table"
                )
            scheduled.update(islice(table, resume.scheduled))
        with self._restoring("frontier"):
            frontier.restore(resume.frontier, table)
        with self._restoring("recorder"):
            recorder.restore(resume.recorder)
        with self._restoring("visitor"):
            visitor.restore(resume.visitor)
        if resume.timing is not None:
            if self._clock is None:
                raise CheckpointError(
                    "checkpoint carries timing state but no timing model is configured"
                )
            with self._restoring("timing"):
                self._clock.restore(resume.timing)
        if resume.faults is not None:
            if faulty is None:
                raise CheckpointError(
                    "checkpoint carries fault-injection state but no fault model "
                    "is configured; resume with the same fault profile"
                )
            with self._restoring("faults"):
                faulty.restore(resume.faults)
        if resume.breakers is not None and breakers is not None:
            with self._restoring("breakers"):
                breakers.restore(resume.breakers)
        if resume.adversary is not None:
            if adversarial is None:
                raise CheckpointError(
                    "checkpoint carries adversary state but no adversary is "
                    "configured; resume with the same adversary profile and seed"
                )
            with self._restoring("adversary"):
                adversarial.restore(resume.adversary)
        if resume.defenses is not None:
            if defenses is None:
                raise CheckpointError(
                    "checkpoint carries defense state but no defenses are armed; "
                    "resume with the same DefenseConfig"
                )
            with self._restoring("defenses"):
                defenses.restore(resume.defenses)

    @contextmanager
    def _restoring(self, section: str) -> Iterator[None]:
        """Report a malformed checkpoint section as a :class:`CheckpointError`.

        A section of the wrong shape surfaces as whatever the restore
        code tripped over — a missing key, a string where a dict was
        expected.  Those become one named error carrying the file and
        the section; a :class:`CheckpointError` the restore raised
        itself gains the same prefix, and any other library error (a
        fault seed that does not match, say) passes through.
        """
        try:
            yield
        except CheckpointError as exc:
            raise CheckpointError(f"{self._resume_source}: {section!r} section: {exc}") from exc
        except ReproError:
            raise
        except STRUCTURAL_FAULTS as exc:
            raise CheckpointError(
                f"{self._resume_source}: malformed {section!r} section: {exc!r}"
            ) from exc
