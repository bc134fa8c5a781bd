"""Engine hooks that feed the observability layer.

These are the hook-protocol replacements for what used to be the
simulator's dedicated instrumented and resilient loops: instead of a
forked copy of the crawl loop, instrumentation subscribes to the
unified :class:`repro.core.engine.CrawlEngine`.

- :class:`StepSpanHook` reproduces the instrumented profile — frontier
  and strategy stage timers plus exactly one ``simulator.fetch`` span
  per crawled page (the record the JSONL trace exporter writes).
- :class:`ResilienceCountersHook` reproduces the resilient loop's event
  counters (retries, requeues, drops, breaker skips).

The two attach independently, matching the historical behaviour the
observability tests pin: a clean instrumented run emits spans and stage
timers; a resilient run emits event counters (its per-step cost budget
has no room for span assembly).
"""

from __future__ import annotations

from time import perf_counter

from repro.core.engine import EngineHook, EngineStage, EngineStep
from repro.core.frontier import Candidate
from repro.obs.instrument import Instrumentation

#: The engine times three stages — pop, prioritize and schedule — and
#: each duration lands in the metric of the component doing that
#: stage's work: ``frontier.pop``, ``strategy.expand``, ``frontier.push``.
#: The stage is told by identity against module globals, not looked up
#: in a dict keyed by an ``Enum`` member, which hashes in Python.
_POP = EngineStage.POP
_SCHEDULE = EngineStage.SCHEDULE


class StepSpanHook(EngineHook):
    """Per-stage timers and one ``simulator.fetch`` span per page.

    The visitor and classifier time themselves; this hook adds the
    frontier and strategy timers and publishes exactly one
    :class:`~repro.obs.SpanEvent` per fetch, carrying the step's
    telemetry attributes.
    """

    needs_wall_clock = True

    def __init__(self, instrumentation: Instrumentation) -> None:
        self._instr = instrumentation
        self._registry = instrumentation.registry

    def on_stage_timing(self, stage: EngineStage, seconds: float, step: EngineStep) -> None:
        registry = self._registry
        if stage is _POP:
            registry.observe("frontier.pop", seconds)
        elif stage is _SCHEDULE:
            registry.observe("frontier.push", seconds)
            if step.pushed:
                registry.add("frontier.pushed", step.pushed)
        else:
            registry.observe("strategy.expand", seconds)

    def on_step(self, step: EngineStep) -> None:
        assert step.candidate is not None and step.response is not None
        assert step.judgment is not None
        self._instr.span(
            "simulator",
            "fetch",
            start_s=step.started_s,
            duration_s=perf_counter() - step.started_s,
            step=step.steps,
            url=step.candidate.url,
            status=step.response.status,
            relevant=step.judgment.relevant,
            queue_size=step.queue_size,
            scheduled=step.scheduled_count,
            sim_time=step.sim_time,
        )


class ResilienceCountersHook(EngineHook):
    """Event counters of the resilient pipeline."""

    def __init__(self, instrumentation: Instrumentation) -> None:
        self._instr = instrumentation

    def on_retry(self, candidate: Candidate, attempt: int) -> None:
        self._instr.count("visitor.retries")

    def on_gate_skip(self, candidate: Candidate) -> None:
        self._instr.count("breaker.skips")

    def on_requeue(self, candidate: Candidate) -> None:
        self._instr.count("frontier.requeued")

    def on_drop(self, candidate: Candidate) -> None:
        self._instr.count("frontier.dropped")
