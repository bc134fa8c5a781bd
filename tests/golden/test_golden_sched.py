"""Differential gate for the engine's slotted (``concurrency=K``) issue policy.

Two contracts pin ``CrawlEngine(concurrency=K)`` to the round-based
(``concurrency=None``) reference:

1. **K=1 equivalence** — with one fetch slot the loop degenerates to
   strict issue→complete alternation, so it must replay every
   round-based golden fixture byte-for-byte.  Pinned both under the
   zero-latency clock (the stated contract: identical traces *and*
   identical virtual time) and under the default clock (frontier order
   at K=1 cannot depend on timing values at all); against a round-based
   crawl accounted on a one-connection clock, the report and the
   ``sim_time`` series match too — the identity that lets one loop body
   serve both policies.  Stepping ``budget=1`` at a time must equal a
   one-shot run under either policy.
2. **Concurrent-order stability** — at K=8 completions interleave and
   the trace legitimately differs from round-based, but it must still be
   a pure function of (dataset, strategy, K, clock).  The checked-in
   ``fixtures/sched/soft-focused-k8.jsonl`` pins that ordering.

On mismatch the actual trace is dumped to ``tests/golden/diffs/`` for
artifact upload, same as the round-based suite.  Regenerate the sched
fixture (with the rest of the matrix) via
``python -m repro.experiments.reproduce --regen-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.session import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.core.timing import TimingModel, zero_latency_timing
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    SCHED_FIXTURE_DIR,
    SCHED_GOLDEN_CONCURRENCY,
    SCHED_GOLDEN_STRATEGY,
    first_divergence,
    golden_dataset,
    golden_strategies,
    read_golden_trace,
    record_golden_trace,
)
from repro.experiments.runner import run_strategy

from conftest import ENGINE_SCENARIOS, faulted_inputs

DIFF_DIR = Path(__file__).parent / "diffs"

STRATEGY_NAMES = sorted(golden_strategies())

#: The zero-latency clock: infinite bandwidth, no latency, no politeness
#: hold-off.  Under it every fetch completes at issue time, so K=1 must
#: match round-based in virtual time as well as in order.
ZERO_LATENCY = zero_latency_timing()

SCHED_FIXTURE = SCHED_FIXTURE_DIR / f"{SCHED_GOLDEN_STRATEGY}-k{SCHED_GOLDEN_CONCURRENCY}.jsonl"


@pytest.fixture(scope="module")
def golden_web_dataset():
    """One golden-universe build shared by every replay in the module."""
    return golden_dataset()


def _dump_actual(name: str, rows: list[dict]) -> Path:
    DIFF_DIR.mkdir(parents=True, exist_ok=True)
    path = DIFF_DIR / f"{name}.actual.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _assert_matches(name: str, expected: list[dict], actual: list[dict]) -> None:
    divergence = first_divergence(expected, actual)
    if divergence is not None:
        dumped = _dump_actual(name, actual)
        pytest.fail(
            f"{name}: {divergence}\n"
            f"actual trace written to {dumped}\n"
            "If this ordering change is intended, regenerate fixtures with "
            "python -m repro.experiments.reproduce --regen-golden"
        )


class TestK1Equivalence:
    """The event loop with one slot IS the round-based engine."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_zero_latency_replays_round_based_fixture(self, golden_web_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(
            golden_web_dataset,
            golden_strategies()[name](),
            SessionConfig(max_pages=GOLDEN_MAX_PAGES, concurrency=1, timing=ZERO_LATENCY),
        )
        _assert_matches(f"sched-k1-{name}", expected, actual)

    def test_default_clock_replays_round_based_fixture(self, golden_web_dataset):
        """K=1 order is timing-independent: one slot means the next pop
        cannot happen until the previous completion has staged, so
        frontier state evolves exactly as round-based regardless of how
        long each fetch takes."""
        name = SCHED_GOLDEN_STRATEGY
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(
            golden_web_dataset,
            golden_strategies()[name](),
            SessionConfig(max_pages=GOLDEN_MAX_PAGES, concurrency=1, timing=TimingModel()),
        )
        _assert_matches(f"sched-k1-default-clock-{name}", expected, actual)

    @pytest.mark.parametrize("scenario", sorted(ENGINE_SCENARIOS))
    def test_one_slot_matches_round_based_on_a_one_connection_clock(
        self, golden_web_dataset, scenario
    ):
        """Same report *and* same ``sim_time`` series: one engine-owned
        slot books the clock exactly as the model's own one-connection
        pool accounts it."""

        def crawl(concurrency):
            sim_times: list[float] = []
            result = run_strategy(
                golden_web_dataset,
                golden_strategies()[SCHED_GOLDEN_STRATEGY](),
                SessionConfig(
                    max_pages=GOLDEN_MAX_PAGES,
                    timing=TimingModel(connections=1),
                    concurrency=concurrency,
                    on_fetch=lambda event: sim_times.append(event.sim_time),
                    **ENGINE_SCENARIOS[scenario](),
                ),
            )
            return report_payload(result), sim_times

        round_based, slotted = crawl(None), crawl(1)
        assert slotted[1] == round_based[1]
        assert slotted[0] == round_based[0]

    @pytest.mark.parametrize("concurrency", [None, 1, SCHED_GOLDEN_CONCURRENCY])
    def test_single_stepping_matches_one_shot_under_faults(
        self, golden_web_dataset, concurrency
    ):
        """Cadence independence — what the serve layer's eviction
        contract relies on — holds for every issue policy."""

        def session() -> CrawlSession:
            return CrawlSession(
                CrawlRequest(
                    strategy=golden_strategies()[SCHED_GOLDEN_STRATEGY](),
                    dataset=golden_web_dataset,
                ),
                SessionConfig(
                    max_pages=GOLDEN_MAX_PAGES, concurrency=concurrency, **faulted_inputs()
                ),
            )

        one_shot = session().run()
        stepped = session().open()
        while not stepped.done:
            assert stepped.step(1) <= 1
        report = stepped.report()
        stepped.close()
        assert report_payload(report) == report_payload(one_shot)


class TestConcurrentGolden:
    """K=8 ordering is pinned by its own checked-in fixture."""

    def test_fixture_exists_and_header_consistent(self):
        assert SCHED_FIXTURE.exists(), (
            f"sched golden fixture missing at {SCHED_FIXTURE}; regenerate with "
            "python -m repro.experiments.reproduce --regen-golden"
        )
        header, rows = read_golden_trace(SCHED_FIXTURE)
        assert header["strategy"] == SCHED_GOLDEN_STRATEGY
        assert header["concurrency"] == SCHED_GOLDEN_CONCURRENCY
        assert header["pages"] == len(rows)
        assert 0 < len(rows) <= GOLDEN_MAX_PAGES
        assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))

    def test_k8_trace_matches_fixture(self, golden_web_dataset):
        _, expected = read_golden_trace(SCHED_FIXTURE)
        actual = record_golden_trace(
            golden_web_dataset,
            golden_strategies()[SCHED_GOLDEN_STRATEGY](),
            SessionConfig(max_pages=GOLDEN_MAX_PAGES, concurrency=SCHED_GOLDEN_CONCURRENCY),
        )
        _assert_matches(
            f"{SCHED_GOLDEN_STRATEGY}-k{SCHED_GOLDEN_CONCURRENCY}", expected, actual
        )

    def test_k8_differs_from_round_based(self):
        """The concurrent fixture must not be vacuous: if K=8 produced
        the round-based order, the differential could not catch a
        scheduler regression that silently serialised fetches."""
        _, round_based = read_golden_trace(
            GOLDEN_FIXTURE_DIR / f"{SCHED_GOLDEN_STRATEGY}.jsonl"
        )
        _, concurrent = read_golden_trace(SCHED_FIXTURE)
        assert [row["url"] for row in round_based] != [row["url"] for row in concurrent]
