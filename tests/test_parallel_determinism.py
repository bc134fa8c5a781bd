"""Determinism of the partitioned crawl simulation.

A partitioned crawl's round-robin interleave, host-hash partitioning
and per-crawler frontiers must make the whole run a pure function of
(web, seeds, partition count, mode): the paper-style comparisons between
firewall and exchange coordination are meaningless if reruns drift.
These tests pin that — same inputs, same ``ParallelResult``, for every
partition mode — on top of the hot-path machinery (tuple heap entries,
interned URLs, classifier cache) the engine now uses.
"""

import pytest

from repro.api import run_crawl
from repro.core.classifier import Classifier, ClassifierCache
from repro.core.parallel import (
    ParallelConfig,
    ParallelResult,
    PartitionMode,
)
from repro.core.session import CrawlRequest, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy

ALL_MODES = list(PartitionMode)


def run_once(
    dataset,
    mode,
    partitions=4,
    strategy_factory=BreadthFirstStrategy,
    max_pages=400,
    cache=None,
):
    return run_crawl(
        CrawlRequest(
            strategy=strategy_factory,
            web=dataset.web(),
            classifier=Classifier(dataset.target_language, cache=cache),
            seeds=list(dataset.seed_urls),
            relevant_urls=dataset.relevant_urls(),
        ),
        config=SessionConfig(
            parallel=ParallelConfig(partitions=partitions, mode=mode), max_pages=max_pages
        ),
    )


class TestRunTwiceIdentical:
    """Same seed set + same PartitionMode ⇒ field-for-field equal results.

    ``ParallelResult`` is a frozen dataclass of scalars and tuples, so
    ``==`` compares the complete outcome, including the per-crawler page
    distribution — any nondeterminism in partition hashing, frontier
    tiebreaks or the round-robin scan shows up here.
    """

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_breadth_first(self, thai_dataset, mode):
        first = run_once(thai_dataset, mode)
        second = run_once(thai_dataset, mode)
        assert isinstance(first, ParallelResult)
        assert first == second

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_priority_strategy(self, thai_dataset, mode):
        factory = lambda: SimpleStrategy(mode="soft")  # noqa: E731
        first = run_once(thai_dataset, mode, strategy_factory=factory)
        second = run_once(thai_dataset, mode, strategy_factory=factory)
        assert first == second

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("partitions", [1, 3])
    def test_across_partition_counts(self, thai_dataset, mode, partitions):
        first = run_once(thai_dataset, mode, partitions=partitions, max_pages=200)
        second = run_once(thai_dataset, mode, partitions=partitions, max_pages=200)
        assert first == second

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_shared_classifier_cache_changes_nothing(self, thai_dataset, mode):
        """A warm (even shared) judgment cache must not alter outcomes —
        the cache is a speed lever, not a semantic one."""
        cold = run_once(thai_dataset, mode)
        shared = ClassifierCache()
        warm_first = run_once(thai_dataset, mode, cache=shared)
        warm_second = run_once(thai_dataset, mode, cache=shared)
        assert warm_first == cold
        assert warm_second == cold


class TestModesActuallyDiffer:
    def test_firewall_and_exchange_are_distinguishable(self, thai_dataset):
        """Guard against the determinism suite passing vacuously: on a
        partitioned web the two coordination modes must not coincide."""
        firewall = run_once(thai_dataset, PartitionMode.FIREWALL)
        exchange = run_once(thai_dataset, PartitionMode.EXCHANGE)
        assert firewall.dropped_foreign_links > 0
        assert exchange.messages_exchanged > 0
        assert firewall != exchange
