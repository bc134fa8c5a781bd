"""Unit tests of the unified crawl engine: stage order, hook dispatch,
and hook-stack transparency.

The golden suite pins the engine's *output* byte-for-byte; these tests
pin its *mechanics* — that every completed step walks the seven stages
in pipeline order, that only overridden hook methods are ever
dispatched, and that attaching hooks (no-op or recording) cannot perturb
the crawl itself.
"""

from __future__ import annotations

import time

import pytest

from repro.core.classifier import Classifier
from repro.core.engine import (
    STAGE_ORDER,
    CheckpointHook,
    CrawlEngine,
    EngineHook,
    EngineStage,
    EngineStep,
)
from repro.core.session import SessionConfig
from repro.core.strategies import get_strategy
from repro.core.timing import TimingModel
from repro.core.visitor import Visitor
from repro.experiments.runner import run_strategy
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import ENGINE_SCENARIOS


def build_engine(web: VirtualWebSpace, seeds, *, hooks=(), strategy_name="breadth-first", **kwargs):
    strategy = get_strategy(strategy_name)
    engine = CrawlEngine(
        frontier=strategy.make_frontier(),
        visitor=Visitor(web),
        classifier=Classifier("thai"),
        strategy=strategy,
        hooks=hooks,
        **kwargs,
    )
    engine.seed(seeds)
    return engine


def crawl_trace(web: VirtualWebSpace, seeds, *, hooks=(), strategy_name="breadth-first"):
    """Fetch order + relevance — the golden suite's observable."""
    rows = []
    engine = build_engine(
        web,
        seeds,
        hooks=hooks,
        strategy_name=strategy_name,
        on_fetch=lambda event: rows.append((event.step, event.url, event.judgment.relevant)),
    )
    engine.run()
    return rows


class RecordingHook(EngineHook):
    """Records every dispatched event with enough detail to replay."""

    def __init__(self) -> None:
        self.stages: list[tuple[int, EngineStage, str]] = []
        self.steps: list[int] = []
        self.step_urls: list[str] = []

    def on_stage(self, stage: EngineStage, step: EngineStep) -> None:
        assert step.candidate is not None
        self.stages.append((step.steps, stage, step.candidate.url))

    def on_step(self, step: EngineStep) -> None:
        assert step.candidate is not None
        self.steps.append(step.steps)
        self.step_urls.append(step.candidate.url)


class NoOpHook(EngineHook):
    """Overrides nothing — must compile to zero dispatch."""


class WallClockHook(EngineHook):
    """Records each step's issue stamp next to its completion time."""

    needs_wall_clock = True

    def __init__(self) -> None:
        self.rows: list[tuple[float, float]] = []

    def on_step(self, step: EngineStep) -> None:
        self.rows.append((step.started_s, time.perf_counter()))


class CountingStepHook(EngineHook):
    def __init__(self) -> None:
        self.count = 0

    def on_step(self, step: EngineStep) -> None:
        self.count += 1


class TestStageSequence:
    def test_each_step_walks_all_seven_stages_in_pipeline_order(self, tiny_web):
        hook = RecordingHook()
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(hook,))
        executed = engine.run()
        assert executed > 1
        assert len(hook.steps) == executed
        # Group the stage stream per completed step and compare each
        # group against the canonical pipeline order.
        per_step = [
            tuple(stage for _, stage, url in hook.stages[i * 7 : (i + 1) * 7])
            for i in range(executed)
        ]
        assert all(group == STAGE_ORDER for group in per_step)
        assert len(hook.stages) == 7 * executed

    def test_stage_stream_carries_the_step_candidate(self, tiny_web):
        hook = RecordingHook()
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(hook,))
        engine.run()
        for index, url in enumerate(hook.step_urls):
            step_stage_urls = {u for _, _, u in hook.stages[index * 7 : (index + 1) * 7]}
            assert step_stage_urls == {url}

    @pytest.mark.parametrize("concurrency", [None, 1, 3])
    @pytest.mark.parametrize("scenario", sorted(ENGINE_SCENARIOS))
    def test_seven_stage_events_per_completed_step_on_every_issue_policy(
        self, thai_dataset, scenario, concurrency
    ):
        """Stage events replay per *completed* step and carry the URL
        ``on_step`` reports, whatever happened at issue time: a faulted
        crawl has failed rounds (popped and gated, never completed), a
        defended one has gate skips and session aliases the gate
        rewrites to their canonical URL — none may leak stage events."""
        hook = RecordingHook()
        result = run_strategy(
            thai_dataset,
            "soft-focused",
            SessionConfig(
                max_pages=400,
                concurrency=concurrency,
                hooks=(hook,),
                **ENGINE_SCENARIOS[scenario](),
            ),
        )
        if scenario == "faulted":
            assert result.resilience["requeued"] > 0
        if scenario == "hostile-defended":
            assert result.adversary["defense_stats"]["alias_skips"] > 0
        assert len(hook.step_urls) == result.pages_crawled == 400
        assert len(hook.stages) == 7 * len(hook.step_urls)
        for index, url in enumerate(hook.step_urls):
            group = hook.stages[index * 7 : (index + 1) * 7]
            assert tuple(stage for _, stage, _ in group) == STAGE_ORDER
            assert {stage_url for _, _, stage_url in group} == {url}

    def test_started_s_is_stamped_at_issue(self, tiny_web):
        """With three slots the seed's outlinks are all issued before
        the first of them completes, so a later step's issue stamp
        precedes the previous step's completion."""
        hook = WallClockHook()
        engine = build_engine(
            tiny_web,
            ["http://seed.co.th/"],
            hooks=(hook,),
            concurrency=3,
            clock=TimingModel().clock(),
        )
        engine.run()
        assert all(0.0 < started <= ended for started, ended in hook.rows)
        assert any(
            started < previous_end
            for (started, _), (_, previous_end) in zip(hook.rows[1:], hook.rows)
        )

    def test_on_step_fires_once_per_crawled_page(self, tiny_web):
        hook = CountingStepHook()
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(hook,))
        executed = engine.run()
        assert hook.count == executed == engine.steps


class TestHookTransparency:
    def test_noop_hook_stack_reproduces_unhooked_trace(self, tiny_web):
        bare = crawl_trace(tiny_web, ["http://seed.co.th/"])
        hooked = crawl_trace(
            tiny_web, ["http://seed.co.th/"], hooks=(NoOpHook(), NoOpHook(), NoOpHook())
        )
        assert hooked == bare
        assert len(bare) > 1

    def test_recording_hook_reproduces_unhooked_trace(self, tiny_web):
        # A hook that listens to *everything* must still not perturb
        # fetch order or relevance.
        bare = crawl_trace(tiny_web, ["http://seed.co.th/"], strategy_name="soft-focused")
        hooked = crawl_trace(
            tiny_web,
            ["http://seed.co.th/"],
            strategy_name="soft-focused",
            hooks=(RecordingHook(),),
        )
        assert hooked == bare

    def test_noop_hooks_compile_to_no_dispatch(self, tiny_web):
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(NoOpHook(),))
        assert engine._stage_cbs is None
        assert engine._step_cbs is None
        assert engine._timing_cbs is None
        assert engine._retry_cbs is None
        assert not engine._wall

    def test_only_overridden_methods_are_compiled(self, tiny_web):
        counting = CountingStepHook()
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(NoOpHook(), counting))
        assert engine._stage_cbs is None
        assert engine._step_cbs == (counting.on_step,)


class TestEngineMechanics:
    def test_budget_limits_steps_per_call(self, tiny_web):
        engine = build_engine(tiny_web, ["http://seed.co.th/"])
        assert engine.run(budget=1) == 1
        assert engine.steps == 1
        assert engine.run(budget=2) == 2
        assert engine.steps == 3

    def test_max_pages_caps_the_crawl(self, tiny_web):
        engine = build_engine(tiny_web, ["http://seed.co.th/"], max_pages=3)
        assert engine.run() == 3
        assert engine.run() == 0  # already at the cap

    def test_offer_dedups_by_url(self, tiny_web):
        from repro.core.frontier import Candidate

        engine = build_engine(tiny_web, ["http://seed.co.th/"])
        assert not engine.offer(Candidate(url="http://seed.co.th/"))
        assert engine.offer(Candidate(url="http://never-seen.example/"))

    def test_checkpoint_hook_fires_on_cadence(self, tiny_web):
        written: list[int] = []
        hook = CheckpointHook(2, lambda step: written.append(step.steps))
        engine = build_engine(tiny_web, ["http://seed.co.th/"], hooks=(hook,))
        executed = engine.run()
        assert written == [n for n in range(1, executed + 1) if n % 2 == 0]


class TestStrategyRegistry:
    def test_get_strategy_resolves_params(self):
        strategy = get_strategy("limited-distance", n=3, prioritized=True)
        assert strategy.n == 3

    def test_unknown_name_error_lists_options(self):
        from repro.core.strategies import available_strategies
        from repro.errors import ConfigError

        with pytest.raises(ConfigError) as excinfo:
            get_strategy("depth-first")
        message = str(excinfo.value)
        for name in available_strategies():
            assert name in message

    def test_invalid_params_raise_config_error(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="invalid parameters"):
            get_strategy("breadth-first", warp_speed=9)

    def test_register_strategy_decorator_and_override(self):
        from repro.core.strategies import available_strategies, register_strategy
        from repro.core.strategies.registry import _REGISTRY

        assert "test-strategy" not in available_strategies()
        try:

            @register_strategy("test-strategy", description="a test entry")
            def make():
                return get_strategy("breadth-first")

            assert available_strategies()["test-strategy"] == "a test entry"
            assert get_strategy("test-strategy").name == "breadth-first"
        finally:
            _REGISTRY.pop("test-strategy", None)
