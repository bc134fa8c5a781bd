"""Tests of the unified session API (repro.api.run_crawl).

run_crawl is the one public entry point: these tests pin down its
result dispatch (SessionConfig vs ParallelConfig), its dataset
defaults, its argument validation, and the per-fetch callback path —
event ordering, sim_time propagation under a TimingModel, and the
trace-file round-trip through an Instrumentation hub.
"""

from dataclasses import fields

import pytest

import repro
from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.engine import EngineHook
from repro.core.parallel import ParallelConfig, ParallelResult, PartitionMode
from repro.core.politeness import HostQueues
from repro.core.session import CrawlRequest, CrawlResult, SessionConfig, report_payload
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.core.timing import TimingModel
from repro.errors import ConfigError
from repro.faults import FaultModel, FaultProfile, ResilienceConfig
from repro.obs import Instrumentation, read_trace

from conftest import SEED

run_crawl = repro.run_crawl


def request(web, strategy=BreadthFirstStrategy, **fields) -> CrawlRequest:
    """A tiny-web workload; ``strategy`` is a class (factory) or an instance."""
    fields.setdefault("classifier", Classifier(Language.THAI))
    fields.setdefault("seeds", (SEED,))
    return CrawlRequest(strategy=strategy, web=web, **fields)


class TestDispatch:
    def test_web_path_runs_sequential_engine(self, tiny_web):
        result = run_crawl(request(tiny_web, BreadthFirstStrategy()))
        assert isinstance(result, CrawlResult)
        assert result.pages_crawled > 0

    def test_strategy_factory_works_sequentially(self, tiny_web):
        instance = run_crawl(request(tiny_web, BreadthFirstStrategy()))
        factory = run_crawl(request(tiny_web, BreadthFirstStrategy))
        assert factory.pages_crawled == instance.pages_crawled

    def test_parallel_config_selects_parallel_engine(self, tiny_web):
        result = run_crawl(
            request(tiny_web),
            config=ParallelConfig(partitions=2, mode=PartitionMode.EXCHANGE),
        )
        assert isinstance(result, ParallelResult)
        assert result.partitions == 2

    def test_both_engines_satisfy_crawl_report(self, tiny_web):
        sequential = run_crawl(request(tiny_web, BreadthFirstStrategy()))
        parallel = run_crawl(request(tiny_web), config=ParallelConfig(partitions=2))
        for report in (sequential, parallel):
            assert report.pages_crawled > 0
            assert 0.0 <= report.coverage <= 1.0
            assert isinstance(report.to_dict(), dict)

    def test_summary_rows_renders_both_result_types(self, tiny_web):
        from repro.experiments.runner import summary_rows

        results = {
            "sequential": run_crawl(request(tiny_web, BreadthFirstStrategy())),
            "parallel": run_crawl(request(tiny_web), config=ParallelConfig(partitions=2)),
        }
        rows = summary_rows(results)
        # The sequential result's to_dict carries its own strategy name;
        # the parallel row keeps the caller's key.
        assert [row["strategy"] for row in rows] == ["breadth-first", "parallel"]
        assert all("pages_crawled" in row for row in rows)


class TestDatasetDefaults:
    def test_dataset_supplies_web_classifier_and_seeds(self, thai_dataset):
        result = run_crawl(
            CrawlRequest(dataset=thai_dataset, strategy=SimpleStrategy(mode="soft"))
        )
        assert result.coverage == pytest.approx(1.0)

    def test_dataset_parallel(self, thai_dataset):
        result = run_crawl(
            CrawlRequest(dataset=thai_dataset, strategy=BreadthFirstStrategy),
            config=ParallelConfig(partitions=2),
        )
        assert isinstance(result, ParallelResult)
        assert result.coverage == pytest.approx(1.0)

    def test_matches_run_strategy(self, thai_dataset):
        from repro.experiments.runner import run_strategy

        direct = run_crawl(
            CrawlRequest(dataset=thai_dataset, strategy=SimpleStrategy(mode="soft")),
            config=SessionConfig(sample_interval=250),
        )
        harness = run_strategy(
            thai_dataset, SimpleStrategy(mode="soft"), SessionConfig(sample_interval=250)
        )
        assert direct.to_dict() == harness.to_dict()


class TestValidation:
    def test_web_and_dataset_conflict(self, tiny_web, thai_dataset):
        with pytest.raises(ConfigError, match="not both"):
            run_crawl(
                CrawlRequest(
                    web=tiny_web, dataset=thai_dataset, strategy=BreadthFirstStrategy()
                )
            )

    def test_missing_web_and_dataset(self):
        with pytest.raises(ConfigError):
            run_crawl(CrawlRequest(strategy=BreadthFirstStrategy()))

    def test_web_requires_classifier_and_seeds(self, tiny_web):
        with pytest.raises(ConfigError):
            run_crawl(request(tiny_web, BreadthFirstStrategy(), classifier=None))
        with pytest.raises(ConfigError):
            run_crawl(request(tiny_web, BreadthFirstStrategy(), seeds=None))

    def test_parallel_rejects_strategy_instance(self, tiny_web):
        with pytest.raises(ConfigError, match="factory"):
            run_crawl(
                request(tiny_web, BreadthFirstStrategy()),
                config=ParallelConfig(partitions=2),
            )

    def test_parallel_rejects_sequential_only_features(self, tiny_web):
        # K fetch slots and the virtual clock belong to one crawler.
        with pytest.raises(ConfigError, match="^timing= .*one crawler"):
            run_crawl(
                request(tiny_web),
                config=SessionConfig(parallel=ParallelConfig(partitions=2), timing=TimingModel()),
            )

    @pytest.mark.parametrize("name", [spec.name for spec in fields(SessionConfig)])
    def test_parallel_honours_or_rejects_every_config_field(self, tiny_web, name):
        # A partitioned run applies seven fields and must refuse the rest
        # by name rather than drop them; a field added to SessionConfig
        # later has no entry below and fails here until someone decides.
        honoured = {
            "parallel", "instrumentation", "faults", "resilience", "max_pages", "on_fetch", "hooks",
        }
        off_default = {
            "parallel": ParallelConfig(partitions=2),
            "instrumentation": Instrumentation(),
            "faults": FaultModel(FaultProfile(transient_error_rate=0.1), seed=7),
            "resilience": ResilienceConfig(),
            "max_pages": 50,
            "sample_interval": 7,
            "extract_from_body": True,
            "checkpoint_every": 10,
            "checkpoint_path": "never-written.ckpt",
            "timing": TimingModel(),
            "concurrency": 2,
            "on_fetch": lambda event: None,
            "adversary": AdversaryModel(AdversaryProfile(trap_host_rate=0.2), seed=9),
            "defenses": DefenseConfig.standard(),
            "frontier": HostQueues(),
            "resume_from": "never-read.ckpt",
            "hooks": (EngineHook(),),
            "record_fault_journal": True,
            "record_adversary_journal": True,
        }
        config = SessionConfig(
            **{"parallel": ParallelConfig(partitions=2), name: off_default[name]}
        )
        if name in honoured:
            assert isinstance(run_crawl(request(tiny_web), config=config), ParallelResult)
        else:
            wording = r"does not combine with a partitioned \(parallel=\) run: \w"
            with pytest.raises(ConfigError, match=f"^{name}= {wording}"):
                run_crawl(request(tiny_web), config=config)

    def test_bad_factory_return_value(self, tiny_web):
        with pytest.raises(ConfigError, match="factory"):
            run_crawl(request(tiny_web, lambda: "not a strategy"))


class TestOnFetchCallback:
    def test_events_arrive_in_step_order_with_full_payload(self, tiny_web):
        events = []
        result = run_crawl(
            request(tiny_web, BreadthFirstStrategy()),
            config=SessionConfig(on_fetch=events.append),
        )
        assert len(events) == result.pages_crawled
        assert [event.step for event in events] == list(range(1, len(events) + 1))
        assert events[0].url == SEED
        assert events[0].judgment.relevant  # the seed is Thai
        assert all(event.queue_size >= 0 for event in events)
        assert all(event.scheduled_count >= event.queue_size for event in events)

    def test_sim_time_is_none_without_timing_model(self, tiny_web):
        events = []
        run_crawl(
            request(tiny_web, BreadthFirstStrategy()),
            config=SessionConfig(on_fetch=events.append),
        )
        assert all(event.sim_time is None for event in events)

    def test_sim_time_propagates_and_grows_with_timing_model(self, tiny_web):
        events = []
        run_crawl(
            request(tiny_web, BreadthFirstStrategy()),
            config=SessionConfig(timing=TimingModel(), on_fetch=events.append),
        )
        times = [event.sim_time for event in events]
        assert all(t is not None and t > 0.0 for t in times)
        assert times == sorted(times)

    def test_callback_and_instrumentation_compose(self, tiny_web, tmp_path):
        path = tmp_path / "trace.jsonl"
        events = []
        with Instrumentation(trace_path=path) as hub:
            result = run_crawl(
                request(tiny_web, BreadthFirstStrategy()),
                config=SessionConfig(
                    timing=TimingModel(), on_fetch=events.append, instrumentation=hub
                ),
            )
        records = read_trace(path)
        assert len(records) == len(events) == result.pages_crawled
        # The trace mirrors the callback stream, including simulated time.
        for record, event in zip(records, events):
            assert record["step"] == event.step
            assert record["url"] == event.url
            assert record["sim_time"] == pytest.approx(event.sim_time)


class TestConfigIsAValue:
    """A config names settings, never run state: reusing it leaks nothing."""

    def test_one_config_run_twice_crawls_the_same(self, thai_dataset):
        config = SessionConfig(
            max_pages=300,
            concurrency=4,
            timing=TimingModel(),
            faults=FaultModel(FaultProfile(transient_error_rate=0.1), seed=3),
            adversary=AdversaryModel(AdversaryProfile(trap_host_rate=0.2), seed=5),
        )
        workload = CrawlRequest(strategy="soft-focused", dataset=thai_dataset)
        first = run_crawl(workload, config=config)
        second = run_crawl(workload, config=config)
        assert sum(first.resilience["faults_injected"].values()) > 0
        assert report_payload(second) == report_payload(first)
        assert second.resilience == first.resilience
        assert second.adversary == first.adversary

    def test_models_are_equal_by_their_inputs(self):
        assert TimingModel(latency_s=0.2) == TimingModel(latency_s=0.2)
        assert hash(FaultModel(per_host={"a.co.th:80": FaultProfile()}, seed=1)) == hash(
            FaultModel(per_host={"a.co.th": FaultProfile()}, seed=1)
        )
        assert AdversaryModel(seed=2) == AdversaryModel(AdversaryProfile(), seed=2)
        assert AdversaryModel(seed=2) != AdversaryModel(seed=3)


class TestPublicSurface:
    def test_run_crawl_exported_from_package_root(self):
        assert repro.run_crawl is run_crawl
        assert "run_crawl" in repro.__all__

    def test_obs_names_exported_from_package_root(self):
        for name in ("Instrumentation", "MetricsRegistry", "EventBus", "read_trace"):
            assert name in repro.__all__
            assert getattr(repro, name) is not None
