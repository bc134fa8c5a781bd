"""Unit tests for the partitioned (parallel) crawl simulation."""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.parallel import (
    ParallelConfig,
    ParallelCrawlSimulator,
    PartitionMode,
)
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.errors import ConfigError

from conftest import SEED


def run_parallel(
    dataset_or_web,
    seeds,
    relevant,
    partitions=4,
    mode=PartitionMode.EXCHANGE,
    max_pages=None,
    strategy_factory=BreadthFirstStrategy,
):
    return ParallelCrawlSimulator(
        web=dataset_or_web,
        strategy_factory=strategy_factory,
        classifier=Classifier(Language.THAI),
        seed_urls=list(seeds),
        config=ParallelConfig(partitions=partitions, mode=mode, max_pages=max_pages),
        relevant_urls=relevant,
    ).run()


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
        from repro.core.session import CrawlRequest, CrawlSession

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
        with pytest.raises(ConfigError):
            ParallelConfig(max_pages=-1)

    def test_config_and_loose_kwargs_conflict(self, tiny_web):
        with pytest.raises(TypeError, match="unexpected"):
            ParallelCrawlSimulator(
                web=tiny_web,
                strategy_factory=BreadthFirstStrategy,
                classifier=Classifier(Language.THAI),
                seed_urls=[SEED],
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
