"""End-to-end integration tests: the paper's qualitative claims on the
session datasets, plus cross-cutting consistency between subsystems.
"""

import pytest

from repro.core.session import SessionConfig
from repro.core.strategies import LimitedDistanceStrategy, SimpleStrategy
from repro.experiments.runner import run_strategy


class TestPaperClaimsThai:
    """Section 5.2 claims on the (scaled) Thai dataset."""

    def test_soft_reaches_full_coverage(self, thai_dataset):
        result = run_strategy(thai_dataset, SimpleStrategy(mode="soft"))
        assert result.final_coverage == pytest.approx(1.0)

    def test_hard_coverage_plateaus_below_soft(self, thai_dataset):
        hard = run_strategy(thai_dataset, SimpleStrategy(mode="hard"))
        assert 0.4 < hard.final_coverage < 0.95

    def test_queue_tradeoff_soft_vs_hard(self, thai_dataset):
        soft = run_strategy(thai_dataset, SimpleStrategy(mode="soft"))
        hard = run_strategy(thai_dataset, SimpleStrategy(mode="hard"))
        ratio = soft.summary.max_queue_size / hard.summary.max_queue_size
        assert ratio > 2.0  # paper: about 8x at full scale

    def test_limited_distance_bridges_hard_and_soft(self, thai_dataset):
        """Coverage ordering: hard (N=0) < limited-N < soft (unbounded)."""
        hard = run_strategy(thai_dataset, SimpleStrategy(mode="hard"))
        limited = run_strategy(thai_dataset, LimitedDistanceStrategy(n=2, prioritized=True))
        soft = run_strategy(thai_dataset, SimpleStrategy(mode="soft"))
        assert hard.final_coverage <= limited.final_coverage <= soft.final_coverage
        assert (
            hard.summary.max_queue_size
            <= limited.summary.max_queue_size * 1.05
        )
        assert limited.summary.max_queue_size <= soft.summary.max_queue_size * 1.05


class TestPaperClaimsJapanese:
    """Section 5.2: the Japanese dataset is too language specific for
    focusing to matter much — which is why the paper drops it."""

    def test_breadth_first_harvest_already_high(self, japanese_dataset):
        from repro.core.strategies import BreadthFirstStrategy

        result = run_strategy(japanese_dataset, BreadthFirstStrategy())
        early = len(japanese_dataset.crawl_log) // 5
        assert result.series.harvest_at(early) > 0.6

    def test_focusing_gain_small_on_japanese(self, thai_dataset, japanese_dataset):
        from repro.core.strategies import BreadthFirstStrategy

        def gain(dataset):
            early = len(dataset.crawl_log) // 5
            hard = run_strategy(dataset, SimpleStrategy(mode="hard"))
            bfs = run_strategy(dataset, BreadthFirstStrategy())
            return hard.series.harvest_at(early) - bfs.series.harvest_at(early)

        assert gain(japanese_dataset) < gain(thai_dataset)


class TestBodyModeEquivalence:
    """Running with synthesized bodies + real parsing must reproduce the
    record-replay crawl exactly (META mode) — the strongest cross-check
    between graphgen, charset, urlkit and core."""

    def test_meta_mode_equals_charset_mode(self, thai_dataset):
        charset_run = run_strategy(
            thai_dataset,
            SimpleStrategy(mode="hard"),
            SessionConfig(max_pages=800),
            classifier_mode="charset",
        )
        meta_run = run_strategy(
            thai_dataset,
            SimpleStrategy(mode="hard"),
            SessionConfig(extract_from_body=True, max_pages=800),
            classifier_mode="meta",
        )
        assert meta_run.pages_crawled == charset_run.pages_crawled
        assert meta_run.final_harvest_rate == pytest.approx(charset_run.final_harvest_rate)
        assert meta_run.final_coverage == pytest.approx(charset_run.final_coverage)

    def test_detector_mode_finds_at_least_charset_set(self, thai_dataset):
        charset_run = run_strategy(thai_dataset, SimpleStrategy(mode="hard"))
        detector_run = run_strategy(
            thai_dataset, SimpleStrategy(mode="hard"), classifier_mode="detector"
        )
        # The detector additionally recognises undeclared Thai pages, so
        # hard-focused tunnels further, never less far.
        assert detector_run.pages_crawled >= charset_run.pages_crawled
        assert detector_run.final_coverage >= charset_run.final_coverage - 0.02


class TestDeterminismEndToEnd:
    def test_same_dataset_same_results(self, thai_dataset):
        first = run_strategy(thai_dataset, SimpleStrategy(mode="soft"), SessionConfig(max_pages=1000))
        second = run_strategy(thai_dataset, SimpleStrategy(mode="soft"), SessionConfig(max_pages=1000))
        assert first.series.to_dict() == second.series.to_dict()
