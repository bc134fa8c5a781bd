"""The crawl engine: one loop, explicit stages, pluggable hooks.

The paper's simulator is one conceptual machine — fetch, classify by
charset, extract URLs, prioritize (§4, Figure 2) — and
:meth:`CrawlEngine.run` is its single implementation.  One crawl step is
an explicit stage pipeline::

    pop → gate (breaker, defenses) → fetch | classify → extract → prioritize → schedule

split at the bar into an **issue** phase (everything up to and including
the fetch, retries and redirect chains with it) and a **completion**
phase (everything that depends on the page's content, then the step
epilogue: metrics record, the per-fetch callback, hook ``on_step``).
The one decision that varies is the *issue policy*:

- ``concurrency=None`` — every issued fetch is handed straight to
  completion.  Crawl order cannot depend on time; ``clock`` is optional
  and pure accounting (:meth:`VirtualClock.observe_fetch`, which owns a
  ``connections`` pool), and ``sim_time`` is None without it.  This is
  the paper's setting.
- ``concurrency=K`` — up to K fetches are in flight at once.  A fetch is
  issued at pop time, booked on the clock with
  :meth:`VirtualClock.reserve_fetch` (per-site politeness only — the
  engine owns the K slots) and completes at its simulated completion
  time, so frontier ordering depends on latency, bandwidth, politeness
  windows and the fault layer's slow-host scaling — the elapsed-time /
  per-server-queue dimension the paper's simulator omitted (§6).
  ``clock`` is mandatory: virtual time *is* the scheduler.

Determinism contract of the slotted policy:

- The event heap orders on ``(completion_time, issue_sequence)``.  The
  issue sequence is unique, so ties at equal virtual time break on issue
  order, identically on every platform — tuple comparison never reaches
  the candidate.
- Slot refill is greedy *before* every completion and never depends on
  the ``budget`` a ``run`` call was given, so a crawl stepped
  ``budget=1`` at a time is byte-identical to a one-shot run — the
  cadence-independence the serve layer's eviction contract needs.
- ``run(budget)`` counts **completions** (crawl steps), never issues; a
  failed fetch round or a gate skip consumes no slot and no budget.

With one slot the policy degenerates to strict issue → complete
alternation: ``concurrency=1`` reproduces the ``concurrency=None`` crawl
byte-for-byte, and on the same clock with ``connections=1`` the same
``sim_time`` series (``tests/golden/test_golden_sched.py``).

Everything else attaches to the loop instead of forking it:

- **observability** subscribes to stage timings and step completions
  (:class:`repro.obs.hooks.StepSpanHook`);
- **resilience** (retry/backoff, requeue, circuit breakers) is engine
  policy — it alters control flow, so it is configured, not hooked —
  while its *accounting* surfaces through hook events
  (:meth:`EngineHook.on_retry` etc.);
- **checkpointing** is a step observer (:class:`CheckpointHook`); the
  in-flight fetches of a slotted run serialise through
  :meth:`CrawlEngine.snapshot_events`.

Hook stream: the issue-time events (``on_retry`` / ``on_gate_skip`` /
``on_requeue`` / ``on_drop``) fire at issue; the seven stage events and
``on_step`` replay in pipeline order per *completed* step, all carrying
the URL that step crawled.  A failed round or a gate skip emits no stage
event.

Hook dispatch is pay-for-what-you-use: at construction the engine
compiles, per event, a tuple of the hook methods actually *overridden*
(``type(hook).on_x is not EngineHook.on_x``).  An event nobody listens
to costs one ``is not None`` check per step; an empty hook stack costs
the same as no hook stack.  That is what lets a single loop serve the
golden-trace fast path and the fully instrumented profile without
byte-level divergence — the property ``tests/golden`` pins.

The engine takes an optional ``router`` replacing the inline schedule
stage: a partitioned crawl (:mod:`repro.core.parallel`) routes each
link to its partition through it.
"""

from __future__ import annotations

import base64
import heapq
import sys
import time
from dataclasses import dataclass, field
from enum import Enum
from itertools import filterfalse
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.adversary.defense import NAIVE_REDIRECT_CAP
from repro.core.candidate import LinkRun, candidate_from_dict, candidate_to_dict, stamp_uid
from repro.core.frontier import Candidate, Frontier
from repro.errors import CheckpointError, ConfigError
from repro.faults.model import RETRYABLE_FAULTS
from repro.urlkit.normalize import intern_url, url_site_key
from repro.webspace.virtualweb import FetchResponse

if TYPE_CHECKING:
    from repro.adversary.defense import DefensePolicy
    from repro.core.classifier import Classifier, Judgment
    from repro.core.metrics import MetricsRecorder
    from repro.core.strategies.base import CrawlStrategy
    from repro.core.timing import VirtualClock
    from repro.core.visitor import Visitor
    from repro.faults.model import FaultModel
    from repro.faults.resilience import HostBreakers, RetryPolicy


class EngineStage(Enum):
    """The seven stages of one crawl step, in pipeline order."""

    POP = "pop"
    GATE = "gate"
    FETCH = "fetch"
    CLASSIFY = "classify"
    EXTRACT = "extract"
    PRIORITIZE = "prioritize"
    SCHEDULE = "schedule"


#: Pipeline order of the stages of one completed step.
STAGE_ORDER: tuple[EngineStage, ...] = (
    EngineStage.POP,
    EngineStage.GATE,
    EngineStage.FETCH,
    EngineStage.CLASSIFY,
    EngineStage.EXTRACT,
    EngineStage.PRIORITIZE,
    EngineStage.SCHEDULE,
)


@dataclass(slots=True)
class EngineStep:
    """Mutable view of the step in flight, shared with hooks.

    One instance lives for the whole run and is *reused* across steps —
    hooks must copy out anything they keep.  Fields fill in stage order;
    a field is only meaningful from its stage onwards (``response`` is
    None during POP, populated from FETCH).
    """

    steps: int = 0
    candidate: Optional[Candidate] = None
    response: Optional["FetchResponse"] = None
    judgment: Optional["Judgment"] = None
    outlinks: Sequence[str] = ()
    #: What expand returned: for a per-link ordering, unscheduled outlinks only.
    children: Sequence[Candidate] = ()
    pushed: int = 0
    sim_time: Optional[float] = None
    queue_size: int = 0
    scheduled_count: int = 0
    #: Wall-clock time the step's fetch was issued (its frontier pop
    #: began); only set when a hook needs wall time.
    started_s: float = 0.0


@dataclass(frozen=True, slots=True)
class CrawlEvent:
    """One completed fetch, fully described, for the ``on_fetch`` callback.

    Unlike :class:`EngineStep`, an event is a fresh immutable value per
    step, so a callback may keep it; the loop allocates none when no
    callback is installed.
    """

    step: int
    candidate: Candidate
    response: FetchResponse
    judgment: Judgment
    queue_size: int
    scheduled_count: int
    sim_time: float | None = None

    @property
    def url(self) -> str:
        return self.candidate.url


#: Signature of the engine's optional per-fetch callback.
FetchCallback = Callable[[CrawlEvent], None]


class EngineHook:
    """Typed observer protocol of the engine pipeline.

    Subclass and override only the events you care about — the engine
    detects overridden methods at construction and never dispatches the
    rest.  A subclass overriding nothing is exactly free.

    Hooks observe; they must not mutate the frontier, the scheduled set
    or the strategy.  Control-flow concerns (retry, gating) are engine
    policy, not hooks.
    """

    #: Set True when the hook reads :attr:`EngineStep.started_s` — the
    #: engine then stamps wall-clock time at each step start.
    needs_wall_clock: bool = False

    def on_stage(self, stage: EngineStage, step: EngineStep) -> None:
        """A pipeline stage completed for the step in flight."""

    def on_stage_timing(self, stage: EngineStage, seconds: float, step: EngineStep) -> None:
        """Wall-clock duration of a timed stage (POP / PRIORITIZE / SCHEDULE)."""

    def on_step(self, step: EngineStep) -> None:
        """A crawl step completed (record + callback already ran)."""

    def on_retry(self, candidate: Candidate, attempt: int) -> None:
        """A fetch attempt hit a retryable fault; backoff + retry follows."""

    def on_gate_skip(self, candidate: Candidate) -> None:
        """The gate (an open circuit breaker) refused the candidate."""

    def on_requeue(self, candidate: Candidate) -> None:
        """A failed candidate went back to the frontier (budget left)."""

    def on_drop(self, candidate: Candidate) -> None:
        """A failed candidate exhausted its requeue budget."""


class CheckpointHook(EngineHook):
    """Periodic checkpointing as a step observer.

    Calls ``write(step)`` every ``every`` completed steps.  The writer —
    a closure over the run's components, built by the configurator —
    owns serialisation; this hook only owns the cadence, which keeps the
    cadence testable and the engine unaware of checkpoint formats.
    """

    def __init__(self, every: int, write: Callable[[EngineStep], None]) -> None:
        self.every = every
        self.write = write

    def on_step(self, step: EngineStep) -> None:
        if step.steps % self.every == 0:
            self.write(step)


@dataclass(slots=True)
class EngineLoopState:
    """Mutable bookkeeping of the crawl loop.

    Everything in here is part of a checkpoint's ``loop`` section —
    a resumed engine continues from these exact values.
    """

    steps: int = 0
    pops: int = 0
    requeues: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    requeued: int = 0
    dropped: int = 0
    breaker_skips: int = 0
    checkpoints_written: int = 0
    redirect_hops: int = 0
    redirect_aborts: int = 0

    def to_dict(self) -> dict:
        return {
            "steps": self.steps,
            "pops": self.pops,
            "requeues": dict(self.requeues),
            "retries": self.retries,
            "requeued": self.requeued,
            "dropped": self.dropped,
            "breaker_skips": self.breaker_skips,
            "checkpoints_written": self.checkpoints_written,
            "redirect_hops": self.redirect_hops,
            "redirect_aborts": self.redirect_aborts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EngineLoopState":
        return cls(
            steps=data["steps"],
            pops=data["pops"],
            requeues={intern_url(url): count for url, count in data["requeues"].items()},
            retries=data["retries"],
            requeued=data["requeued"],
            dropped=data["dropped"],
            breaker_skips=data["breaker_skips"],
            checkpoints_written=data["checkpoints_written"],
            # .get: pre-adversary checkpoints (format <= 2) lack these.
            redirect_hops=data.get("redirect_hops", 0),
            redirect_aborts=data.get("redirect_aborts", 0),
        )


#: Replacement for the inline schedule stage: receives every candidate
#: the strategy kept and decides which frontier (partition) it enters.
CandidateRouter = Callable[[Candidate], None]

#: One in-flight fetch: ``(completion, seq, start, pop_seconds,
#: started_s, candidate, response)``.  ``seq`` is unique, so heap
#: comparisons never reach the candidate; ``pop_seconds`` and
#: ``started_s`` carry the issue-time wall-clock readings to the
#: completion-time hook dispatch.
_Event = tuple

_HOOK_EVENTS = (
    "on_stage",
    "on_stage_timing",
    "on_step",
    "on_retry",
    "on_gate_skip",
    "on_requeue",
    "on_drop",
)


class CrawlEngine:
    """One crawl loop over one frontier, with composable policies.

    The engine owns control flow only.  Components (frontier, visitor,
    classifier, strategy, recorder) are constructed and wired by a
    configurator — :class:`repro.core.session.CrawlSession`, for
    partitioned runs too — which also decides which hooks attach.

    ``concurrency`` selects the issue policy (see the module docstring):
    None completes every fetch the moment it is issued, an integer K
    keeps up to K fetches in flight on the virtual clock and needs a
    ``clock`` (:meth:`repro.core.timing.TimingModel.clock`).

    The loop preserves the exact operation order the golden traces pin:
    pop → gate → fetch (retry, redirects) → clock → judge → extract →
    expand → schedule → tick → record → callback → hooks.  Optional
    features are hoisted to local ``None`` checks, so a clean run pays a
    handful of predictable branches.
    """

    def __init__(
        self,
        *,
        frontier: Frontier,
        visitor: "Visitor",
        classifier: "Classifier",
        strategy: "CrawlStrategy",
        scheduled: Optional[set[str]] = None,
        recorder: Optional["MetricsRecorder"] = None,
        max_pages: Optional[int] = None,
        clock: Optional["VirtualClock"] = None,
        on_fetch: Optional[FetchCallback] = None,
        faults: Optional["FaultModel"] = None,
        retry: Optional["RetryPolicy"] = None,
        breakers: Optional["HostBreakers"] = None,
        defenses: Optional["DefensePolicy"] = None,
        hooks: Sequence[EngineHook] = (),
        loop_state: Optional[EngineLoopState] = None,
        router: Optional[CandidateRouter] = None,
        concurrency: Optional[int] = None,
    ) -> None:
        if concurrency is not None:
            if clock is None:
                raise ConfigError(
                    "concurrency= needs a clock= — virtual time is the scheduler; "
                    "use zero_latency_timing().clock() for the degenerate clock"
                )
            if concurrency < 1:
                raise ConfigError("concurrency must be >= 1")
        self.frontier = frontier
        self.visitor = visitor
        self.classifier = classifier
        self.strategy = strategy
        self.scheduled: set[str] = set() if scheduled is None else scheduled
        self.recorder = recorder
        self.max_pages = max_pages
        self.clock = clock
        self.on_fetch = on_fetch
        self.faults = faults
        self.retry = retry
        self.breakers = breakers
        self.defenses = defenses
        self.state = loop_state if loop_state is not None else EngineLoopState()
        self.router = router
        self.concurrency = concurrency
        #: In-flight fetches, a heap of :data:`_Event` tuples (always
        #: empty under ``concurrency=None``).
        self._events: list[_Event] = []
        #: The event clock: virtual time of the last completion.
        self._now = 0.0
        #: Monotonic issue counter — the deterministic heap tiebreak.
        self._issue_seq = 0
        self.hooks = tuple(hooks)
        # Compile per-event dispatch tuples of the *overridden* methods
        # only; None means "nobody listens" and costs one check per use.
        dispatch: dict[str, Optional[tuple[Callable, ...]]] = {}
        for event in _HOOK_EVENTS:
            base = getattr(EngineHook, event)
            methods = tuple(
                getattr(hook, event)
                for hook in self.hooks
                if getattr(type(hook), event, base) is not base
            )
            dispatch[event] = methods or None
        self._stage_cbs = dispatch["on_stage"]
        self._timing_cbs = dispatch["on_stage_timing"]
        self._step_cbs = dispatch["on_step"]
        self._retry_cbs = dispatch["on_retry"]
        self._gate_cbs = dispatch["on_gate_skip"]
        self._requeue_cbs = dispatch["on_requeue"]
        self._drop_cbs = dispatch["on_drop"]
        self._wall = self._timing_cbs is not None or any(
            hook.needs_wall_clock for hook in self.hooks
        )
        #: Step view shared with hooks, reused across iterations.
        self.step = EngineStep()

    @property
    def steps(self) -> int:
        """Completed crawl steps (failed fetch rounds excluded)."""
        return self.state.steps

    @property
    def has_pending_work(self) -> bool:
        """True while a step can still complete (queued *or* in flight).

        The session layer's ``done`` must go through this, never through
        the frontier directly.
        """
        return bool(self.frontier) or bool(self._events)

    @property
    def in_flight(self) -> int:
        """Issued fetches whose completion has not been processed yet."""
        return len(self._events)

    @property
    def virtual_now(self) -> float:
        """Virtual time of the most recent completion."""
        return self._now

    def offer(self, candidate: Candidate) -> bool:
        """Schedule a candidate unless its URL was already seen here."""
        if candidate.url in self.scheduled:
            return False
        self.scheduled.add(candidate.url)
        self.frontier.push(candidate)
        return True

    def seed(self, seed_urls: Sequence[str]) -> None:
        """Push the strategy's seed candidates through scheduling dedup."""
        for candidate in self.strategy.seed_candidates(seed_urls):
            self.offer(candidate)

    def _requeue_or_drop(self, candidate: Candidate) -> None:
        """Put a failed candidate back at its original priority, or drop it.

        The URL stays in ``scheduled`` either way: a dropped URL was
        genuinely attempted and given up on, so a rediscovery along
        another path must not resurrect it.
        """
        state = self.state
        url = candidate.url
        used = state.requeues.get(url, 0)
        assert self.retry is not None
        if used < self.retry.max_requeues:
            state.requeues[url] = used + 1
            state.requeued += 1
            self.frontier.push(candidate)
            if self._requeue_cbs is not None:
                for callback in self._requeue_cbs:
                    callback(candidate)
        else:
            state.dropped += 1
            if self._drop_cbs is not None:
                for callback in self._drop_cbs:
                    callback(candidate)

    def _follow_redirects(
        self, response: "FetchResponse", fetch: Callable[[str], "FetchResponse"]
    ) -> "FetchResponse":
        """Chase a chain of adversary redirects to content or exhaustion.

        With a :class:`~repro.adversary.defense.DefensePolicy` whose
        ``max_redirect_hops`` is set, the chain is capped there and a
        seen-set breaks loops.  Otherwise the engine follows *naively*
        up to :data:`~repro.adversary.defense.NAIVE_REDIRECT_CAP` with no
        loop memory — a loop burns the whole cap in wasted fetches,
        which is the defenses-off cost the survival sweep measures.

        Returns the final response: real content, a still-redirecting
        response (judged like any non-OK page), or a faulted hop (the
        caller treats the round as failed, same as a faulted fetch).
        """
        state = self.state
        defenses = self.defenses
        limit = NAIVE_REDIRECT_CAP
        seen: Optional[set[str]] = None
        if defenses is not None and defenses.config.max_redirect_hops is not None:
            limit = defenses.config.max_redirect_hops
            seen = {response.url}
        hops = 0
        while response.redirect_to is not None:
            if hops >= limit:
                state.redirect_aborts += 1
                break
            target = response.redirect_to
            if seen is not None:
                if target in seen:
                    state.redirect_aborts += 1
                    break
                seen.add(target)
            response = fetch(target)
            hops += 1
            state.redirect_hops += 1
            if response.fault is not None:
                break
        return response

    def run(self, budget: Optional[int] = None) -> int:
        """Crawl until nothing is pending, the page cap, or ``budget`` steps.

        Returns the number of crawl steps (completions) executed by
        *this* call.

        A failed fetch round (all attempts exhausted on a retryable
        fault) is *not* a crawl step: the page was never obtained, so it
        must not dilute harvest rate, advance the page cap or take a
        fetch slot.  The candidate is requeued at its original priority
        until its requeue budget runs out.
        """
        # This loop runs once per simulated fetch — the per-page hot
        # path.  Bound methods and loop-invariant attributes are hoisted
        # into locals: at production scale the LOAD_ATTR chains cost
        # more than some of the work they dispatch to.
        frontier = self.frontier
        visitor = self.visitor
        strategy = self.strategy
        scheduled = self.scheduled
        recorder = self.recorder
        clock = self.clock
        on_fetch = self.on_fetch
        faults = self.faults
        retry = self.retry
        breakers = self.breakers
        state = self.state
        max_pages = self.max_pages
        route = self.router
        events = self._events
        slots = self.concurrency

        pop = frontier.pop
        push = frontier.push
        push_run = frontier.push_run
        fetch = visitor.fetch
        extract = visitor.extract
        judge = self.classifier.judge
        expand = strategy.expand
        # Link contexts are computed only for strategies that score on
        # textual cues; for everything else this stays None and the
        # extract→expand hand-off is exactly the pre-context code path.
        extract_contexts = visitor.extract_contexts if strategy.wants_link_contexts else None
        # A per-link ordering is handed only unscheduled outlinks (unrouted).
        skip_scheduled = route is None and not strategy.sees_scheduled_links
        is_scheduled = scheduled.__contains__
        # Compile away an un-overridden tick (an instance-level one runs).
        # Imported here: at module level it would reorder the package's imports.
        from repro.core.strategies import base as strategy_base
        tick = strategy.tick
        if getattr(tick, "__func__", None) is strategy_base.CrawlStrategy.tick:
            tick = None
        record = recorder.record if recorder is not None else None
        scheduled_add = scheduled.add
        scheduled_update = scheduled.update
        site_of = url_site_key

        resilient = retry is not None
        max_attempts = retry.max_attempts if retry is not None else 0
        backoff_s = retry.backoff_s if retry is not None else None
        has_faults = faults is not None
        defenses = self.defenses
        # Only a fault model can make a fetch fail, and only failures
        # put hosts on the breaker board — so with no faults attached
        # (and a board that resumed empty) the board can never populate,
        # and the per-pop host lookup + breaker gate are provably dead.
        # Disarm them up front; a healthy iteration then costs a clean
        # iteration plus a few counter updates.
        track_hosts = has_faults or (breakers is not None and breakers.open_hosts() > 0)
        # Defenses budget and fingerprint per host, so they widen the
        # per-pop host computation beyond the breaker board's needs.
        need_host = track_hosts or defenses is not None
        allow = breakers.allow if breakers is not None and track_hosts else None
        on_success = breakers.record_success if breakers is not None and track_hosts else None

        stage_cbs = self._stage_cbs
        timing_cbs = self._timing_cbs
        step_cbs = self._step_cbs
        retry_cbs = self._retry_cbs
        gate_cbs = self._gate_cbs
        wall = self._wall
        step = self.step
        perf = time.perf_counter
        stage_pop = EngineStage.POP
        stage_gate = EngineStage.GATE
        stage_fetch = EngineStage.FETCH
        stage_classify = EngineStage.CLASSIFY
        stage_extract = EngineStage.EXTRACT
        stage_prioritize = EngineStage.PRIORITIZE
        stage_schedule = EngineStage.SCHEDULE

        host: Optional[str] = None
        sim_time: Optional[float] = None
        started = pop_s = 0.0
        first = steps = state.steps
        # The step count this call stops at: the page cap or the budget.
        stop_at = sys.maxsize if budget is None else steps + budget
        if max_pages is not None and max_pages < stop_at:
            stop_at = max_pages
        try:
            while True:
                if steps >= stop_at:
                    break

                # -- issue phase: pop → gate → fetch --------------------
                # ``slots is None``: the first fetch that succeeds breaks
                # out, straight into the completion phase.  Otherwise
                # free slots are refilled greedily; the page-cap guard
                # counts in-flight fetches, because every issued fetch
                # will complete and issuing past the cap would overshoot.
                while frontier and (
                    slots is None
                    or (
                        len(events) < slots
                        and (max_pages is None or steps + len(events) < max_pages)
                    )
                ):
                    if wall:
                        started = perf()
                        candidate = pop()
                        pop_s = perf() - started
                    else:
                        candidate = pop()
                    if resilient:
                        state.pops += 1

                    # Gate: circuit breaker, then defense policy.
                    if need_host:
                        host = site_of(candidate.url)
                        if allow is not None and not allow(host, state.pops):
                            state.breaker_skips += 1
                            if gate_cbs is not None:
                                for callback in gate_cbs:
                                    callback(candidate)
                            self._requeue_or_drop(candidate)
                            continue
                        if defenses is not None:
                            canonical = defenses.canonicalize(candidate.url)
                            if canonical is not None:
                                # A session alias: crawl the base URL
                                # once, skip every further alias outright.
                                if canonical in scheduled:
                                    defenses.stats["alias_skips"] += 1
                                    if gate_cbs is not None:
                                        for callback in gate_cbs:
                                            callback(candidate)
                                    continue
                                canonical = intern_url(canonical)
                                scheduled_add(canonical)
                                candidate = candidate._replace(url=canonical, uid=None)
                            if not defenses.admit(candidate.url, host):
                                # Policy refusal is permanent: the URL
                                # stays in ``scheduled`` and is never
                                # requeued — depth and budget verdicts
                                # cannot change on a later pop.
                                if gate_cbs is not None:
                                    for callback in gate_cbs:
                                        callback(candidate)
                                continue

                    # Fetch, with retry/backoff on retryable faults.
                    # Retries and redirect chains resolve here, so the
                    # response (and the fault layer's state) materialises
                    # at issue time.  The candidate's url-id hint rides
                    # every attempt; only an id-addressed source reads it.
                    response = fetch(candidate.url, candidate.uid)
                    if response.fault is not None or response.redirect_to is not None:
                        attempt = 1
                        while response.fault in RETRYABLE_FAULTS and attempt < max_attempts:
                            state.retries += 1
                            if retry_cbs is not None:
                                for callback in retry_cbs:
                                    callback(candidate, attempt)
                            if clock is not None and backoff_s is not None:
                                clock.delay_site(candidate.url, backoff_s(attempt))
                            response = fetch(candidate.url, candidate.uid)
                            attempt += 1
                        if (
                            response.redirect_to is not None
                            and response.fault not in RETRYABLE_FAULTS
                        ):
                            response = self._follow_redirects(response, fetch)
                        if response.fault in RETRYABLE_FAULTS:
                            # The round failed for good (out of attempts,
                            # or a hop faulted mid-chain and the requeued
                            # candidate restarts the chain): no page, no
                            # slot, no step.
                            if breakers is not None:
                                breakers.record_failure(host, state.pops)
                            self._requeue_or_drop(candidate)
                            continue
                    if on_success is not None:
                        on_success(host)

                    # Clock.  Without one the fetch completes untimed.
                    if clock is None:
                        break
                    if has_faults:
                        lscale, bscale = faults.fetch_scales(host, candidate.url)
                    else:
                        lscale = bscale = 1.0
                    if slots is None:
                        # Pure accounting; the recorded time is the
                        # global clock, not this fetch's own completion:
                        # with pooled connections a later-started fetch
                        # can finish earlier, but elapsed time is monotone.
                        clock.observe_fetch(candidate.url, response.size, lscale, bscale)
                        sim_time = clock.now
                        break
                    start, completion = clock.reserve_fetch(
                        candidate.url, response.size, self._now, lscale, bscale
                    )
                    heapq.heappush(
                        events,
                        (completion, self._issue_seq, start, pop_s, started, candidate, response),
                    )
                    self._issue_seq += 1
                else:
                    # No fetch was handed over directly: complete the
                    # earliest one in flight.  Its own completion time is
                    # recorded — completions are processed in time order,
                    # so the series stays monotone.
                    if not events:
                        break
                    sim_time, _, _, pop_s, started, candidate, response = heapq.heappop(events)
                    self._now = sim_time

                # -- completion phase -----------------------------------
                # The issue-side stages replay here, so hooks see seven
                # stage events per completed step and none for a
                # candidate that was skipped or whose round failed.
                if wall:
                    step.started_s = started
                    if timing_cbs is not None:
                        for callback in timing_cbs:
                            callback(stage_pop, pop_s, step)
                if stage_cbs is not None:
                    step.candidate = candidate
                    for callback in stage_cbs:
                        callback(stage_pop, step)
                    for callback in stage_cbs:
                        callback(stage_gate, step)
                    step.response = response
                    for callback in stage_cbs:
                        callback(stage_fetch, step)

                # -- classify -------------------------------------------
                judgment = judge(response)
                steps += 1
                if stage_cbs is not None:
                    step.steps = steps
                    step.judgment = judgment
                    for callback in stage_cbs:
                        callback(stage_classify, step)

                # -- extract --------------------------------------------
                outlinks = extract(response)
                if defenses is not None:
                    # Content policy needs the judgment; the site key is
                    # memoised, so recomputing it is a dict probe.
                    dhost = site_of(candidate.url)
                    if defenses.suppress_links(response, dhost, judgment.relevant):
                        outlinks = ()
                    defenses.note_page(dhost, judgment.relevant)
                if stage_cbs is not None:
                    step.outlinks = outlinks
                    for callback in stage_cbs:
                        callback(stage_extract, step)
                if skip_scheduled:
                    outlinks = tuple(filterfalse(is_scheduled, outlinks))

                # -- prioritize (strategy link expansion) ---------------
                if extract_contexts is not None:
                    link_contexts = extract_contexts(response, outlinks)
                if timing_cbs is not None:
                    expand_started = perf()
                if extract_contexts is not None:
                    children = expand(candidate, response, judgment, outlinks, link_contexts)
                else:
                    children = expand(candidate, response, judgment, outlinks)
                if timing_cbs is not None:
                    now = perf()
                    for callback in timing_cbs:
                        callback(stage_prioritize, now - expand_started, step)
                if stage_cbs is not None:
                    step.children = children
                    for callback in stage_cbs:
                        callback(stage_prioritize, step)

                # -- schedule -------------------------------------------
                pushed = 0
                if timing_cbs is not None:
                    push_started = perf()
                if route is None and type(children) is LinkRun:
                    # A page's links as one run: repeats within the page
                    # and scheduled URLs dropped, the rest scheduled and
                    # queued whole, at C speed.  Over an id-addressed
                    # source (a PageStore) a response carries its
                    # outlinks' url-ids, and the run takes them along, so
                    # each fetch and coverage lookup skips re-hashing the
                    # URL.
                    urls = fresh = children.urls
                    if urls:
                        unique = dict.fromkeys(urls)
                        # A per-link ordering was handed unscheduled links
                        # only, so without a repeat its run is all fresh.
                        if not skip_scheduled or len(unique) != len(urls):
                            fresh = tuple(filterfalse(is_scheduled, unique))
                    if fresh:
                        scheduled_update(fresh)
                        # The page's own run when nothing was dropped.
                        run = children
                        if response.outlink_ids is not None:
                            ids = dict(zip(response.outlinks, response.outlink_ids))
                            run = LinkRun(
                                fresh, run.priority, run.distance, run.referrer,
                                tuple(map(ids.get, fresh)),
                            )
                        elif len(fresh) != len(urls):
                            run = LinkRun(fresh, run.priority, run.distance, run.referrer)
                        push_run(run)
                        pushed = len(fresh)
                elif route is None:
                    # A list of candidates, stamped with their url-ids the
                    # same way.
                    uid_of = None
                    if response.outlink_ids is not None:
                        uid_of = dict(zip(response.outlinks, response.outlink_ids)).get
                    for child in children:
                        url = child.url
                        if url not in scheduled:
                            scheduled_add(url)
                            if uid_of is not None:
                                child = stamp_uid(child, uid_of(url))
                            push(child)
                            pushed += 1
                else:
                    for child in children:
                        route(child)
                if timing_cbs is not None:
                    now = perf()
                    step.pushed = pushed
                    for callback in timing_cbs:
                        callback(stage_schedule, now - push_started, step)
                if tick is not None:
                    tick(steps, frontier)
                if stage_cbs is not None:
                    step.pushed = pushed
                    for callback in stage_cbs:
                        callback(stage_schedule, step)

                # -- step epilogue: record, callback, hooks -------------
                if record is not None:
                    # (url, judged_relevant, queue_size, sim_time, page_id)
                    record(
                        candidate.url, judgment.relevant, len(frontier), sim_time, response.page_id
                    )
                if on_fetch is not None:
                    on_fetch(
                        CrawlEvent(
                            step=steps,
                            candidate=candidate,
                            response=response,
                            judgment=judgment,
                            queue_size=len(frontier),
                            scheduled_count=len(scheduled),
                            sim_time=sim_time,
                        )
                    )
                if step_cbs is not None:
                    step.steps = steps
                    step.candidate = candidate
                    step.response = response
                    step.judgment = judgment
                    step.sim_time = sim_time
                    step.pushed = pushed
                    step.queue_size = len(frontier)
                    step.scheduled_count = len(scheduled)
                    for callback in step_cbs:
                        callback(step)
        finally:
            state.steps = steps
        return steps - first

    # -- checkpoint support --------------------------------------------------

    def snapshot_events(self) -> dict:
        """Serialisable in-flight state (the checkpoint ``sched`` section).

        Issued-but-uncompleted fetches are stored response-and-all —
        fault and visitor state advanced at issue time, so a resumed
        crawl must *not* re-fetch them.  Events serialise in canonical
        ``(completion, seq)`` order — the heap's internal list layout is
        an implementation detail — and :meth:`restore_events`
        re-heapifies.
        """
        return {
            "concurrency": self.concurrency,
            "now": self._now,
            "issue_seq": self._issue_seq,
            "events": [
                {
                    "completion": completion,
                    "seq": seq,
                    "start": start,
                    "candidate": candidate_to_dict(candidate),
                    "response": response_to_dict(response),
                }
                for completion, seq, start, _, _, candidate, response in sorted(
                    self._events, key=lambda event: (event[0], event[1])
                )
            ],
        }

    def restore_events(self, state: dict) -> None:
        """Load a :meth:`snapshot_events` into this (fresh) engine."""
        if state["concurrency"] != self.concurrency:
            raise CheckpointError(
                f"checkpoint was taken at concurrency={state['concurrency']}; "
                f"resume with the same concurrency, not {self.concurrency}"
            )
        crawl_log = self.visitor.web.crawl_log
        # Wall-clock readings are telemetry, not checkpoint state: a
        # restored fetch reports a zero pop and counts as issued now.
        restored_s = time.perf_counter()
        events: list[_Event] = [
            (
                entry["completion"],
                entry["seq"],
                entry["start"],
                0.0,
                restored_s,
                candidate_from_dict(entry["candidate"]),
                response_from_dict(entry["response"], crawl_log),
            )
            for entry in state["events"]
        ]
        heapq.heapify(events)
        self._events = events
        self._now = state["now"]
        self._issue_seq = state["issue_seq"]


def response_to_dict(response: FetchResponse) -> dict:
    """JSON form of an in-flight fetch's response (checkpoint ``sched``).

    The page record is *not* serialised — it is a pure function of the
    dataset, so only its presence is recorded (``has_record``) and
    :func:`response_from_dict` re-attaches it from the crawl log.  The
    body (present only under body synthesis, possibly garbled by the
    fault layer) travels as base64.
    """
    entry: dict = {
        "url": response.url,
        "status": response.status,
        "content_type": response.content_type,
        "charset": response.charset,
        "outlinks": list(response.outlinks),
        "size": response.size,
        "truncated": response.truncated,
        "fault": response.fault,
        "redirect_to": response.redirect_to,
        "adversary": response.adversary,
        "has_record": response.record is not None,
    }
    if response.body is not None:
        entry["body"] = base64.b64encode(response.body).decode("ascii")
    return entry


def response_from_dict(entry: dict, crawl_log: Any) -> FetchResponse:
    """Inverse of :func:`response_to_dict`, re-attaching the page record."""
    url = intern_url(entry["url"])
    record = None
    if entry["has_record"]:
        record = crawl_log.get(url)
        if record is None:
            raise CheckpointError(
                f"checkpointed in-flight fetch of {url!r} has no record in this "
                "crawl log; resume against the web space the checkpoint was "
                "taken from"
            )
    body_b64 = entry.get("body")
    return FetchResponse(
        url=url,
        status=entry["status"],
        content_type=entry["content_type"],
        charset=entry["charset"],
        outlinks=tuple(intern_url(link) for link in entry["outlinks"]),
        size=entry["size"],
        body=base64.b64decode(body_b64) if body_b64 is not None else None,
        record=record,
        truncated=entry["truncated"],
        fault=entry["fault"],
        # .get: format-v2 checkpoints predate the adversary layer.
        redirect_to=entry.get("redirect_to"),
        adversary=entry.get("adversary"),
    )
