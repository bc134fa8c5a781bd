"""Unit tests for the experiment runner."""

from repro.core.politeness import HostQueues
from repro.core.session import SessionConfig, report_payload
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.core.timing import TimingModel
from repro.experiments.runner import run_strategies, run_strategy, summary_rows
from repro.faults import FaultModel, FaultProfile


class TestRunStrategy:
    def test_basic_run(self, thai_dataset):
        result = run_strategy(thai_dataset, BreadthFirstStrategy(), SessionConfig(max_pages=500))
        assert result.pages_crawled == 500
        assert 0.0 <= result.final_harvest_rate <= 1.0

    def test_sample_interval_default_scales(self, thai_dataset):
        result = run_strategy(thai_dataset, BreadthFirstStrategy())
        assert 50 <= len(result.series) <= 400

    def test_classifier_mode_string(self, thai_dataset):
        result = run_strategy(
            thai_dataset,
            SimpleStrategy(mode="hard"),
            SessionConfig(max_pages=300),
            classifier_mode="oracle",
        )
        assert result.pages_crawled == 300

    def test_detector_mode_gets_bodies_automatically(self, thai_dataset):
        result = run_strategy(
            thai_dataset,
            SimpleStrategy(mode="hard"),
            SessionConfig(max_pages=100),
            classifier_mode="detector",
        )
        assert result.pages_crawled == 100

    def test_extract_from_body(self, thai_dataset):
        with_body = run_strategy(
            thai_dataset,
            BreadthFirstStrategy(),
            SessionConfig(extract_from_body=True, max_pages=200),
        )
        without = run_strategy(thai_dataset, BreadthFirstStrategy(), SessionConfig(max_pages=200))
        # Synthesized bodies reproduce record outlinks exactly, so the
        # two modes crawl the same pages in the same order.
        assert with_body.final_harvest_rate == without.final_harvest_rate

    def test_timing_model_attached(self, thai_dataset):
        result = run_strategy(
            thai_dataset,
            BreadthFirstStrategy(),
            SessionConfig(timing=TimingModel(), max_pages=200),
        )
        assert result.summary.simulated_seconds > 0

    def test_every_session_field_is_reachable(self, thai_dataset):
        # frontier= is the field the old keyword mirror had no name for.
        config = SessionConfig(frontier=HostQueues(), max_pages=200)
        result = run_strategy(thai_dataset, "soft-focused", config)
        assert result.pages_crawled == 200
        plain = run_strategy(thai_dataset, "soft-focused", SessionConfig(max_pages=200))
        assert result.series.to_dict() != plain.series.to_dict()


class TestRunStrategies:
    def test_keyed_by_name_in_order(self, thai_dataset):
        strategies = [BreadthFirstStrategy(), SimpleStrategy(mode="hard")]
        results = run_strategies(thai_dataset, strategies, SessionConfig(max_pages=200))
        assert list(results) == ["breadth-first", "hard-focused"]

    def test_shared_config_runs_each_strategy_as_alone(self, thai_dataset):
        config = SessionConfig(
            max_pages=300,
            timing=TimingModel(),
            faults=FaultModel(FaultProfile(transient_error_rate=0.1), seed=3),
        )
        together = run_strategies(thai_dataset, ["breadth-first", "soft-focused"], config)
        for name, result in together.items():
            alone = run_strategy(thai_dataset, name, config)
            assert report_payload(result) == report_payload(alone), name
            assert result.resilience == alone.resilience, name

    def test_summary_rows(self, thai_dataset):
        results = run_strategies(thai_dataset, [BreadthFirstStrategy()], SessionConfig(max_pages=100))
        rows = summary_rows(results)
        assert rows[0]["strategy"] == "breadth-first"
        assert rows[0]["pages_crawled"] == 100
        assert set(rows[0]) == {
            "strategy",
            "pages_crawled",
            "final_harvest_rate",
            "final_coverage",
            "max_queue_size",
        }
