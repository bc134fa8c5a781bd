"""Golden differentials for the adversary layer and engine defenses.

Two contracts, pinned against the same checked-in fixtures the clean
engine is gated on:

1. **Inert seams are a clean-path no-op** — a run threaded through an
   empty-profile :class:`~repro.adversary.AdversarialWebSpace` *and* a
   disabled :class:`~repro.adversary.DefenseConfig` replays every golden
   fixture byte-identical, on the round-based engine and on the K=1
   event-driven engine.  The adversary/defense machinery may not perturb
   ordering, judgments, or metrics of an unattacked crawl.
2. **Kill/resume transparency under attack** — a crawl over a *hostile*
   web (traps + redirects + aliases, defenses on) that is checkpointed,
   killed and resumed produces the concatenation-identical fetch
   sequence: the checkpoint round-trips adversary chain state and
   defense counters, not just the frontier.
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.core.session import SessionConfig
from repro.core.timing import zero_latency_timing
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    first_divergence,
    golden_dataset,
    golden_strategies,
    read_golden_trace,
)
from repro.experiments.runner import run_strategy

STRATEGY_NAMES = sorted(golden_strategies())

ZERO_LATENCY = zero_latency_timing()

#: The hostile web of the kill/resume differential: every scenario that
#: carries *state* across fetches (in-flight redirect chains, trap
#: tallies, alias churn) plus the full defense preset (fingerprint set,
#: host streaks) — resuming must reload all of it.
HOSTILE_PROFILE = AdversaryProfile(
    trap_host_rate=0.2,
    trap_fanout=3,
    redirect_rate=0.2,
    redirect_hops=3,
    redirect_loop_rate=0.3,
    alias_host_rate=0.2,
)


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


def inert_seams() -> dict:
    return {"adversary": AdversaryModel(), "defenses": DefenseConfig()}


class TestInertSeamsAreCleanPathNoOp:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_round_based_replay_matches_fixture(self, golden_web_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_trace(
            golden_web_dataset, golden_strategies()[name](), **inert_seams()
        )
        divergence = first_divergence(expected, actual)
        assert divergence is None, f"{name} (inert adversary seams): {divergence}"

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_k1_sched_replay_matches_fixture(self, golden_web_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_trace(
            golden_web_dataset,
            golden_strategies()[name](),
            concurrency=1,
            timing=ZERO_LATENCY,
            **inert_seams(),
        )
        divergence = first_divergence(expected, actual)
        assert divergence is None, f"{name} (K=1 sched, inert seams): {divergence}"


class TestKillResumeUnderAttack:
    @pytest.mark.parametrize("name", ["breadth-first", "soft-focused"])
    def test_interrupted_plus_resumed_equals_uninterrupted(
        self, golden_web_dataset, name, tmp_path
    ):
        """Checkpoint every 250 pages, kill at 600, resume to the cap —
        over a hostile web with the standard defenses armed."""
        factory = golden_strategies()[name]

        def hostile() -> dict:
            return {
                "adversary": AdversaryModel(profile=HOSTILE_PROFILE, seed=13),
                "defenses": DefenseConfig.standard(),
            }

        expected = record_trace(golden_web_dataset, factory(), **hostile())

        path = tmp_path / f"{name}.ckpt"
        prefix = record_trace(
            golden_web_dataset,
            factory(),
            max_pages=600,
            checkpoint_every=250,
            checkpoint_path=path,
            **hostile(),
        )
        # The checkpoint covers the first 500 steps; a real kill loses
        # the uncheckpointed tail.
        prefix = prefix[:500]

        suffix = record_trace(
            golden_web_dataset, factory(), resume_from=path, **hostile()
        )
        divergence = first_divergence(expected, prefix + suffix)
        assert divergence is None, f"{name} (hostile kill/resume): {divergence}"

    def test_hostile_trace_differs_from_fixture(self, golden_web_dataset):
        """The differential above must not be vacuous: the hostile web
        has to actually change the crawl it protects."""
        _, clean = read_golden_trace(GOLDEN_FIXTURE_DIR / "breadth-first.jsonl")
        hostile = record_trace(
            golden_web_dataset,
            golden_strategies()["breadth-first"](),
            adversary=AdversaryModel(profile=HOSTILE_PROFILE, seed=13),
            defenses=DefenseConfig.standard(),
        )
        assert [row["url"] for row in hostile] != [row["url"] for row in clean]
