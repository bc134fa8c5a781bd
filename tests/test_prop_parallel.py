"""Property-based tests for the partitioned crawl simulation.

Invariants over random small webs: partition accounting always balances,
exchange mode always dominates firewall mode on reach, and a
single-partition run equals the sequential simulator.
"""

from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.api import run_crawl
from repro.core.parallel import ParallelConfig, PartitionMode
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.virtualweb import VirtualWebSpace

N_PAGES = 14
N_HOSTS = 5


@st.composite
def random_webs(draw):
    """Random web over a handful of hosts (so partitioning is exercised)."""
    urls = [
        f"http://host{index % N_HOSTS}.example/p{index}" for index in range(N_PAGES)
    ]
    records = []
    for index, url in enumerate(urls):
        is_thai = draw(st.booleans())
        targets = draw(
            st.lists(st.integers(min_value=0, max_value=N_PAGES - 1), max_size=5, unique=True)
        )
        records.append(
            PageRecord(
                url=url,
                charset="TIS-620" if is_thai else "ISO-8859-1",
                true_language=Language.THAI if is_thai else Language.OTHER,
                outlinks=tuple(urls[t] for t in targets if t != index),
                size=100,
            )
        )
    return CrawlLog(records)


def run(log: CrawlLog, partitions: int, mode: PartitionMode):
    return run_crawl(
        CrawlRequest(
            strategy=BreadthFirstStrategy,
            web=VirtualWebSpace(log),
            classifier=Classifier(Language.THAI),
            seeds=[next(iter(log.urls()))],
            relevant_urls=relevant_url_set(log, Language.THAI),
        ),
        config=SessionConfig(
            parallel=ParallelConfig(partitions=partitions, mode=PartitionMode(mode))
        ),
    )


class TestParallelInvariants:
    @given(random_webs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_accounting_balances(self, log, partitions):
        for mode in ("firewall", "exchange"):
            result = run(log, partitions, mode)
            assert sum(result.per_crawler_pages) == result.pages_crawled
            assert result.pages_crawled <= len(log)

    @given(random_webs(), st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_exchange_dominates_firewall(self, log, partitions):
        exchange = run(log, partitions, "exchange")
        firewall = run(log, partitions, "firewall")
        assert exchange.covered_relevant >= firewall.covered_relevant
        assert exchange.pages_crawled >= firewall.pages_crawled

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_single_partition_equals_sequential(self, log):
        parallel = run(log, 1, "exchange")
        sequential = CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=VirtualWebSpace(log),
                classifier=Classifier(Language.THAI),
                seeds=(next(iter(log.urls())),),
                relevant_urls=relevant_url_set(log, Language.THAI),
            )
        ).run()
        assert parallel.pages_crawled == sequential.pages_crawled
        assert parallel.covered_relevant == sequential.summary.covered_relevant

    @given(random_webs(), st.integers(min_value=2, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_exchange_crawls_same_set_as_sequential(self, log, partitions):
        """Exchange-mode breadth-first reaches exactly the sequential
        reachable closure, independent of the partition count."""
        exchange = run(log, partitions, "exchange")
        single = run(log, 1, "exchange")
        assert exchange.pages_crawled == single.pages_crawled

    @given(random_webs())
    @settings(max_examples=30, deadline=None)
    def test_firewall_never_exchanges(self, log):
        result = run(log, 4, "firewall")
        assert result.messages_exchanged == 0
