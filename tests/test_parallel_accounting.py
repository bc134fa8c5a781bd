"""Regression tests for a partitioned crawl's accounting.

Two historical bugs are pinned here:

- the round-robin driver's one-slot ``last_event`` mailbox could go
  stale when a partition's single-step run completed no fetch (retry
  exhaustion draining its frontier), double-counting the previous
  fetch event.  The driver and its mailbox are gone: a partitioned
  crawl is one engine, whose completed steps are the page tally, and a
  partition's turn ends only with a completed step;
- EXCHANGE mode counted a cross-partition forward only when the owner's
  dedup admitted it, undercounting ``messages_exchanged``.  Every
  forward is a message; admissions are the separate
  ``messages_accepted`` tally.
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.api import run_crawl
from repro.core.parallel import ParallelConfig, PartitionMode
from repro.core.session import CrawlRequest, SessionConfig
from repro.core.strategies import BreadthFirstStrategy
from repro.faults import FaultModel, FaultProfile
from repro.webspace.crawllog import CrawlLog
from repro.webspace.query import host_bucket
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import thai_page

FAULTY_PROFILE = FaultProfile(
    transient_error_rate=0.4, timeout_rate=0.2, truncation_rate=0.2
)


def _host_in_bucket(bucket: int, partitions: int, prefix: str) -> str:
    """A hostname whose :func:`host_bucket` is ``bucket``."""
    for index in range(1000):
        url = f"http://{prefix}{index}.example/"
        if host_bucket(url, partitions) == bucket:
            return url
    raise AssertionError(f"no {prefix}* host hashes to bucket {bucket}")


def run_parallel(
    web, seeds, mode=PartitionMode.EXCHANGE, partitions=2, relevant_urls=None, **config
):
    return run_crawl(
        CrawlRequest(
            strategy=BreadthFirstStrategy,
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=list(seeds),
            relevant_urls=relevant_urls,
        ),
        config=SessionConfig(parallel=ParallelConfig(partitions=partitions, mode=mode), **config),
    )


class TestMessageAccounting:
    """Every forward is a message; dedup admission is a separate tally."""

    @pytest.fixture()
    def duplicate_forward_web(self):
        """Two own-partition pages both link the same foreign URL.

        ``seed`` and ``second`` hash to partition 0, ``foreign`` to
        partition 1 (under 2 partitions); both local pages link the one
        foreign page, so crawler 0 forwards it twice but crawler 1's
        dedup admits it once.
        """
        seed = _host_in_bucket(0, 2, "a")
        second = _host_in_bucket(0, 2, "b")
        foreign = _host_in_bucket(1, 2, "c")
        pages = [
            thai_page(seed, outlinks=(second, foreign)),
            thai_page(second, outlinks=(foreign,)),
            thai_page(foreign),
        ]
        return VirtualWebSpace(CrawlLog(pages)), seed

    def test_every_forward_is_counted(self, duplicate_forward_web):
        web, seed = duplicate_forward_web
        result = run_parallel(web, [seed])
        assert result.pages_crawled == 3
        assert result.messages_exchanged == 2
        assert result.messages_accepted == 1

    def test_firewall_drops_every_forward(self, duplicate_forward_web):
        web, seed = duplicate_forward_web
        result = run_parallel(web, [seed], mode=PartitionMode.FIREWALL)
        assert result.pages_crawled == 2  # foreign page unreachable
        assert result.messages_exchanged == 0
        assert result.messages_accepted == 0
        assert result.dropped_foreign_links == 2

    def test_accepted_never_exceeds_exchanged(self, thai_dataset):
        result = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            partitions=4,
            relevant_urls=thai_dataset.relevant_urls(),
        )
        assert 0 < result.messages_accepted <= result.messages_exchanged

    def test_to_dict_reports_both_tallies(self, duplicate_forward_web):
        web, seed = duplicate_forward_web
        data = run_parallel(web, [seed]).to_dict()
        assert data["messages_exchanged"] == 2
        assert data["messages_accepted"] == 1


class TestMailboxReconciliation:
    """Page tallies must match the partitions' completed-step counts even
    when fetch rounds fail outright (faulty web, retry exhaustion)."""

    def _faulty_run(self, thai_dataset, seed=7, partitions=4):
        return run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            partitions=partitions,
            relevant_urls=thai_dataset.relevant_urls(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=seed),
        )

    def test_pages_match_per_crawler_totals_under_faults(self, thai_dataset):
        result = self._faulty_run(thai_dataset)
        assert result.pages_crawled == sum(result.per_crawler_pages)
        assert result.covered_relevant <= result.pages_crawled

    def test_faulty_parallel_is_deterministic(self, thai_dataset):
        # A fresh FaultModel each run: injection counters are mutable.
        assert self._faulty_run(thai_dataset) == self._faulty_run(thai_dataset)

    def test_faults_reduce_but_do_not_inflate_pages(self, thai_dataset):
        clean = run_parallel(
            thai_dataset.web(),
            thai_dataset.seed_urls,
            partitions=4,
            relevant_urls=thai_dataset.relevant_urls(),
        )
        faulty = self._faulty_run(thai_dataset)
        # A double-counted step would inflate the faulty tally past the
        # clean crawl of the same web; dropped candidates can only
        # shrink it.
        assert faulty.pages_crawled <= clean.pages_crawled

    def test_run_crawl_routes_faults_to_parallel_engine(self, thai_dataset):
        result = run_crawl(
            CrawlRequest(
                strategy=BreadthFirstStrategy,
                web=thai_dataset.web(),
                classifier=Classifier(Language.THAI),
                seeds=thai_dataset.seed_urls,
                relevant_urls=thai_dataset.relevant_urls(),
            ),
            config=SessionConfig(
                parallel=ParallelConfig(partitions=2),
                max_pages=300,
                faults=FaultModel(profile=FAULTY_PROFILE, seed=7),
            ),
        )
        assert result.pages_crawled == sum(result.per_crawler_pages)
        assert result.pages_crawled <= 300
