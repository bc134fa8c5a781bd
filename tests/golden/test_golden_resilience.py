"""Golden differentials for the resilience layer.

Two contracts, both pinned against the same checked-in fixtures the
clean engine is gated on:

1. **No-op on the clean path** — a run with the resilient loop attached
   (retry, breakers, requeue armed; zero faults injected) replays every
   golden fixture byte-identical.  The resilience machinery may not
   perturb ordering, judgments, or metrics of a healthy crawl.
2. **Kill/resume transparency** — a crawl checkpointed mid-run, killed,
   and resumed produces the *concatenation-identical* fetch sequence:
   interrupted-prefix + resumed-suffix equals the uninterrupted fixture
   step for step.
"""

from __future__ import annotations

import pytest

from repro.core.session import SessionConfig
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    first_divergence,
    golden_dataset,
    golden_strategies,
    read_golden_trace,
)
from repro.experiments.runner import run_strategy
from repro.faults import ResilienceConfig

STRATEGY_NAMES = sorted(golden_strategies())


@pytest.fixture(scope="module")
def golden_web_dataset():
    return golden_dataset()


def record_trace(dataset, strategy, max_pages=GOLDEN_MAX_PAGES, **kwargs):
    rows = []

    def observe(event) -> None:
        rows.append(
            {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
        )

    run_strategy(dataset, strategy, SessionConfig(max_pages=max_pages, on_fetch=observe, **kwargs))
    return rows


class TestResilienceIsCleanPathNoOp:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_resilient_replay_matches_fixture(self, golden_web_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_trace(
            golden_web_dataset,
            golden_strategies()[name](),
            resilience=ResilienceConfig(),
        )
        divergence = first_divergence(expected, actual)
        assert divergence is None, f"{name} (resilient, no faults): {divergence}"


class TestKillResumeMatchesFixture:
    @pytest.mark.parametrize("name", ["breadth-first", "limited-distance-n2-prioritized"])
    def test_interrupted_plus_resumed_equals_fixture(
        self, golden_web_dataset, name, tmp_path
    ):
        """Checkpoint every 250 pages, kill at 600, resume to the cap."""
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        factory = golden_strategies()[name]
        path = tmp_path / f"{name}.ckpt"

        prefix = record_trace(
            golden_web_dataset,
            factory(),
            max_pages=600,
            checkpoint_every=250,
            checkpoint_path=path,
        )
        # The checkpoint covers the first 500 steps; the resumed run
        # replays 501.. — drop the prefix's uncheckpointed tail, exactly
        # what a real kill would lose.
        prefix = prefix[:500]

        suffix = record_trace(golden_web_dataset, factory(), resume_from=path)
        divergence = first_divergence(expected, prefix + suffix)
        assert divergence is None, f"{name} (kill/resume): {divergence}"
