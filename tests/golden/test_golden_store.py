"""Golden differential over the columnar page-store backend.

The out-of-core refactor's acceptance bar: every checked-in golden
fixture replays **byte-identically** when the golden dataset is served
from an on-disk :class:`~repro.webspace.store.PageStore` instead of
the in-memory :class:`~repro.webspace.crawllog.CrawlLog` — on the
round-based engine (all 7 fixtures) and on the virtual-time engine at
K=1 (the equivalence contract both backends must satisfy).

The store is the checked-in format-v2 file of the golden web
(``fixtures/stores/thai-golden.v2.lswc``, the bytes
:func:`~repro.experiments.datasets.build_dataset_store` writes for it),
served straight from disk, so a divergence in storage or access shows up
here with the first divergent step named.  The round-based replay also
runs over the checked-in format-v1 store of the same web, so a file the
old writer wrote still crawls identically.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from conftest import GOLDEN_STORE_FIXTURE, V1_STORE_FIXTURE

from repro.core.session import SessionConfig
from repro.core.timing import zero_latency_timing
from repro.experiments.datasets import open_dataset_store
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    first_divergence,
    golden_strategies,
    read_golden_trace,
    record_golden_trace,
)
from repro.experiments.runner import run_strategy

DIFF_DIR = Path(__file__).parent / "diffs"

STRATEGY_NAMES = sorted(golden_strategies())

#: Zero-latency clock for the K=1 replay (same contract as
#: ``test_golden_sched.py``: identical trace, identical virtual time).
ZERO_LATENCY = zero_latency_timing()


@pytest.fixture(scope="module")
def store_dataset():
    """The golden dataset, served from its checked-in columnar page store."""
    dataset = open_dataset_store(GOLDEN_STORE_FIXTURE)
    yield dataset
    dataset.crawl_log.close()


@pytest.fixture(scope="module")
def v1_store_dataset():
    """The same web as the format-v1 file the last v1 writer wrote."""
    dataset = open_dataset_store(V1_STORE_FIXTURE)
    yield dataset
    dataset.crawl_log.close()


def _dump_actual(name: str, rows: list[dict]) -> Path:
    DIFF_DIR.mkdir(parents=True, exist_ok=True)
    path = DIFF_DIR / f"{name}.actual.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return path


def _assert_matches(label: str, expected: list[dict], actual: list[dict]) -> None:
    divergence = first_divergence(expected, actual)
    if divergence is not None:
        dumped = _dump_actual(label, actual)
        pytest.fail(
            f"{label}: {divergence}\nactual trace written to {dumped}\n"
            "The store-backed dataset diverged from the in-memory golden "
            "reference — the columnar backend must be byte-identical."
        )


class TestStoreBackedGolden:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_round_based_trace_matches_golden(self, store_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(store_dataset, golden_strategies()[name]())
        _assert_matches(f"store-{name}", expected, actual)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_round_based_trace_over_a_v1_store_matches_golden(self, v1_store_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(v1_store_dataset, golden_strategies()[name]())
        _assert_matches(f"store-v1-{name}", expected, actual)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_k1_sched_trace_matches_golden(self, store_dataset, name):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(
            store_dataset,
            golden_strategies()[name](),
            SessionConfig(max_pages=GOLDEN_MAX_PAGES, concurrency=1, timing=ZERO_LATENCY),
        )
        _assert_matches(f"store-sched-k1-{name}", expected, actual)


class TestStoreKillResume:
    """Checkpoints hold no ids, so a resumed store crawl starts unhinted
    — and must still replay the fixture byte-identically."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_interrupted_plus_resumed_equals_fixture(self, store_dataset, name, tmp_path):
        _, expected = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")
        factory = golden_strategies()[name]
        path = tmp_path / f"{name}.ckpt"

        def record(**kwargs) -> list[dict]:
            rows: list[dict] = []
            run_strategy(
                store_dataset,
                factory(),
                SessionConfig(
                    on_fetch=lambda event: rows.append(
                        {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
                    ),
                    **kwargs,
                ),
            )
            return rows

        # Checkpoint every 250 pages, kill at 600: the file covers 500.
        prefix = record(max_pages=600, checkpoint_every=250, checkpoint_path=path)[:500]
        suffix = record(max_pages=GOLDEN_MAX_PAGES, resume_from=path)
        _assert_matches(f"store-resume-{name}", expected, prefix + suffix)


class TestStoreCoverageById:
    """The recorder counts coverage by the page id a store response
    carries; recounting by URL must give the same number."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_covered_relevant_equals_the_recount_by_url(self, store_dataset, name):
        relevant = store_dataset.relevant_urls()
        fetched: list[tuple[str, int | None]] = []
        result = run_strategy(
            store_dataset,
            golden_strategies()[name](),
            SessionConfig(
                max_pages=GOLDEN_MAX_PAGES,
                on_fetch=lambda event: fetched.append((event.url, event.response.page_id)),
            ),
        )
        assert any(page_id is not None for _, page_id in fetched)
        for url, page_id in fetched:
            if page_id is not None:
                assert relevant.contains_id(page_id) == (url in relevant)
        assert result.summary.covered_relevant == sum(url in relevant for url, _ in fetched)
