"""Unit tests for the partitioned (parallel) crawl simulation."""

import pytest

from repro.api import run_crawl
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.engine import EngineHook
from repro.core.parallel import (
    ParallelConfig,
    ParallelResult,
    PartitionMode,
)
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.errors import CheckpointError, ConfigError
from repro.faults import FaultModel, FaultProfile

from conftest import SEED


def partitioned_request(web, seeds, relevant, strategy_factory=BreadthFirstStrategy):
    return CrawlRequest(
        strategy=strategy_factory,
        web=web,
        classifier=Classifier(Language.THAI),
        seeds=list(seeds),
        relevant_urls=relevant,
    )


def run_parallel(
    dataset_or_web,
    seeds,
    relevant,
    partitions=4,
    mode=PartitionMode.EXCHANGE,
    max_pages=None,
    strategy_factory=BreadthFirstStrategy,
    **config,
):
    return run_crawl(
        partitioned_request(dataset_or_web, seeds, relevant, strategy_factory),
        config=SessionConfig(
            parallel=ParallelConfig(partitions=partitions, mode=mode),
            max_pages=max_pages,
            **config,
        ),
    )


class TestValidation:
    def test_rejects_zero_partitions(self, tiny_web):
        with pytest.raises(ConfigError):
            run_parallel(tiny_web, [SEED], frozenset(), partitions=0)

    def test_rejects_unknown_mode(self, tiny_web):
        with pytest.raises(ConfigError):
            run_parallel(tiny_web, [SEED], frozenset(), mode="telepathy")

    def test_rejects_empty_seeds(self, tiny_web):
        with pytest.raises(ConfigError):
            run_parallel(tiny_web, [], frozenset())


class TestSinglePartitionEquivalence:
    def test_matches_sequential_crawl(self, tiny_web):
        parallel = run_parallel(tiny_web, [SEED], frozenset(), partitions=1)
        sequential = CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
            )
        ).run()
        assert parallel.pages_crawled == sequential.pages_crawled


class TestModes:
    def test_exchange_reaches_full_coverage(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
            mode=PartitionMode.EXCHANGE,
        )
        assert result.coverage == pytest.approx(1.0)
        assert result.messages_exchanged > 0
        assert result.dropped_foreign_links == 0

    def test_firewall_loses_coverage(self, thai_dataset):
        firewall = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
            mode=PartitionMode.FIREWALL,
        )
        assert firewall.coverage < 0.9
        assert firewall.dropped_foreign_links > 0
        assert firewall.messages_exchanged == 0

    def test_firewall_coverage_degrades_with_partitions(self, thai_dataset):
        coverages = []
        for partitions in (1, 2, 8):
            result = run_parallel(
                thai_dataset.web(),
                thai_dataset.seed_urls,
                thai_dataset.relevant_urls(),
                partitions=partitions,
                mode=PartitionMode.FIREWALL,
            )
            coverages.append(result.coverage)
        assert coverages[0] == pytest.approx(1.0)
        assert coverages[0] >= coverages[1] >= coverages[2]
        assert coverages[2] < coverages[0]

    def test_exchange_messages_grow_with_partitions(self, thai_dataset):
        messages = []
        for partitions in (2, 8):
            result = run_parallel(
                thai_dataset.web(),
                thai_dataset.seed_urls,
                thai_dataset.relevant_urls(),
                partitions=partitions,
                mode=PartitionMode.EXCHANGE,
            )
            messages.append(result.messages_exchanged)
        assert messages[1] > messages[0]


class TestAccounting:
    def test_no_page_crawled_twice_across_crawlers(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
            mode=PartitionMode.EXCHANGE,
        )
        # Partitions own disjoint URL sets and dedupe internally, so the
        # per-crawler totals sum to the global count exactly.
        assert sum(result.per_crawler_pages) == result.pages_crawled

    def test_max_pages_cap(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
            max_pages=500,
        )
        assert result.pages_crawled == 500

    def test_balance_metric(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
        )
        assert 0.0 < result.balance <= 1.0

    def test_works_with_focused_strategy(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            partitions=4,
            mode=PartitionMode.EXCHANGE,
            strategy_factory=lambda: SimpleStrategy(mode="hard"),
        )
        # Hard-focused drops irrelevant-referrer links regardless of
        # partitioning, so coverage stays below the exchange ceiling.
        assert 0.3 < result.coverage < 1.0


class TestPartitionMode:
    def test_result_mode_compares_with_strings(self, tiny_web):
        # str-mixin enum: existing `result.mode == "exchange"` call sites
        # keep working, and it renders as the wire value.
        result = run_parallel(tiny_web, [SEED], frozenset())
        assert result.mode == "exchange"
        assert str(result.mode) == "exchange"

    def test_coerce_rejects_non_mode_values(self):
        with pytest.raises(ConfigError):
            ParallelConfig(mode=42)


class TestParallelConfig:
    def test_validates_partitions(self):
        with pytest.raises(ConfigError):
            ParallelConfig(partitions=0)

    def test_validates_max_pages(self):
        # The page cap of a partitioned run is SessionConfig's own.
        with pytest.raises(ConfigError, match="max_pages"):
            SessionConfig(parallel=ParallelConfig(), max_pages=-1)
        with pytest.raises(TypeError, match="max_pages"):
            ParallelConfig(max_pages=10)

    def test_old_max_pages_key_is_a_named_error(self):
        with pytest.raises(ConfigError, match="max_pages"):
            SessionConfig.from_json({"parallel": {"partitions": 2, "max_pages": 10}})

    def test_config_and_loose_kwargs_conflict(self, tiny_web):
        with pytest.raises(TypeError, match="unexpected"):
            run_crawl(
                partitioned_request(tiny_web, [SEED], frozenset()),
                config=ParallelConfig(),
                partitions=2,
            )

    def test_to_dict_is_flat_and_serialisable(self, tiny_web):
        import json

        result = run_parallel(tiny_web, [SEED], frozenset())
        data = result.to_dict()
        assert data["mode"] == "exchange"
        assert data["partitions"] == 4
        assert data["pages_crawled"] == result.pages_crawled
        json.dumps(data)  # flat JSON-serialisable row


class TestPartitionedSession:
    """A partitioned crawl is a CrawlSession: it steps, calls back and
    hooks like any other, and refuses what it cannot checkpoint."""

    @pytest.mark.parametrize("strategy", ["breadth-first", "soft-focused"])
    def test_one_partition_fetches_the_sequential_sequence(self, thai_dataset, strategy):
        fetched = {}
        for name, parallel in (("sequential", None), ("partitioned", ParallelConfig(1))):
            urls = fetched[name] = []
            run_crawl(
                CrawlRequest(dataset=thai_dataset, strategy=strategy),
                config=SessionConfig(
                    parallel=parallel, on_fetch=lambda event, urls=urls: urls.append(event.url)
                ),
            )
        assert len(fetched["sequential"]) > 1000
        assert fetched["partitioned"] == fetched["sequential"]

    @pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
    def test_stepping_by_seven_gives_the_one_shot_result(self, thai_dataset, faulty):
        config = SessionConfig(
            parallel=ParallelConfig(4, PartitionMode.EXCHANGE),
            faults=FaultModel(FaultProfile(transient_error_rate=0.3), seed=3) if faulty else None,
        )
        request = CrawlRequest(dataset=thai_dataset, strategy="soft-focused")
        one_shot = run_crawl(request, config=config)
        session = CrawlSession(request, config)
        while not session.done:
            assert session.step(7) <= 7
        stepped = session.report()
        session.close()
        assert isinstance(stepped, ParallelResult)
        assert stepped == one_shot

    def test_on_fetch_sees_every_page(self, thai_dataset):
        events = []
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            max_pages=300,
            on_fetch=events.append,
        )
        assert [event.step for event in events] == list(range(1, 301))
        assert result.pages_crawled == 300
        assert len({event.url for event in events}) == 300

    def test_hooks_see_every_step(self, thai_dataset):
        class CountSteps(EngineHook):
            def __init__(self) -> None:
                self.steps = 0

            def on_step(self, step) -> None:
                self.steps += 1

        hook = CountSteps()
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            thai_dataset.relevant_urls(),
            hooks=(hook,),
        )
        assert hook.steps == result.pages_crawled > 0

    def test_snapshot_is_refused(self, tiny_web):
        session = CrawlSession(
            partitioned_request(tiny_web, [SEED], frozenset()),
            SessionConfig(parallel=ParallelConfig(2)),
        )
        session.step(2)
        assert not session.resumable
        with pytest.raises(CheckpointError, match="no partition section"):
            session.snapshot()
        session.close()
