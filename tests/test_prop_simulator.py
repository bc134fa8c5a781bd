"""Property-based tests for simulator invariants over random small webs.

A random web is generated as an arbitrary adjacency over a handful of
pages with random languages/statuses; whatever the structure, crawl
invariants must hold for every strategy.
"""

from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import (
    BreadthFirstStrategy,
    LimitedDistanceStrategy,
    SimpleStrategy,
)
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.virtualweb import VirtualWebSpace

N_PAGES = 12


@st.composite
def random_webs(draw):
    """A random 12-page web with random links, languages and statuses."""
    urls = [f"http://h{index}.example/" for index in range(N_PAGES)]
    records = []
    for index, url in enumerate(urls):
        is_ok = draw(st.booleans())
        is_thai = draw(st.booleans())
        targets = draw(
            st.lists(st.integers(min_value=0, max_value=N_PAGES - 1), max_size=5, unique=True)
        )
        records.append(
            PageRecord(
                url=url,
                status=200 if is_ok else 404,
                charset="TIS-620" if is_thai else "ISO-8859-1",
                true_language=Language.THAI if is_thai else Language.OTHER,
                outlinks=tuple(urls[t] for t in targets if t != index) if is_ok else (),
                size=100,
            )
        )
    return CrawlLog(records)


def strategies_under_test():
    return [
        BreadthFirstStrategy(),
        SimpleStrategy(mode="hard"),
        SimpleStrategy(mode="soft"),
        LimitedDistanceStrategy(n=1),
        LimitedDistanceStrategy(n=2, prioritized=True),
    ]


def run(log: CrawlLog, strategy):
    urls = []
    result = CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=VirtualWebSpace(log),
            classifier=Classifier(Language.THAI),
            seeds=(next(iter(log.urls())),),
            relevant_urls=relevant_url_set(log, Language.THAI),
        ),
        SessionConfig(sample_interval=1, on_fetch=lambda event: urls.append(event.url)),
    ).run()
    return result, urls


class TestInvariants:
    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_no_url_fetched_twice(self, log):
        for strategy in strategies_under_test():
            _, urls = run(log, strategy)
            assert len(urls) == len(set(urls)), strategy.name

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_crawl_bounded_by_universe(self, log):
        for strategy in strategies_under_test():
            result, _ = run(log, strategy)
            assert result.pages_crawled <= len(log)

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_rates_in_unit_interval(self, log):
        for strategy in strategies_under_test():
            result, _ = run(log, strategy)
            for value in result.series.harvest_rate + result.series.coverage:
                assert 0.0 <= value <= 1.0

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_coverage_monotone_nondecreasing(self, log):
        for strategy in strategies_under_test():
            result, _ = run(log, strategy)
            coverage = result.series.coverage
            assert all(a <= b + 1e-12 for a, b in zip(coverage, coverage[1:]))

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_soft_coverage_geq_hard(self, log):
        soft, _ = run(log, SimpleStrategy(mode="soft"))
        hard, _ = run(log, SimpleStrategy(mode="hard"))
        assert soft.final_coverage >= hard.final_coverage - 1e-12

    @given(random_webs(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_limited_distance_coverage_monotone_in_n(self, log, n):
        smaller, _ = run(log, LimitedDistanceStrategy(n=n))
        larger, _ = run(log, LimitedDistanceStrategy(n=n + 1))
        assert larger.final_coverage >= smaller.final_coverage - 1e-12

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_crawls_reachable_closure(self, log):
        from repro.webspace.linkdb import LinkDB

        result, urls = run(log, BreadthFirstStrategy())
        reachable = LinkDB(log).reachable_from([next(iter(log.urls()))])
        assert set(urls) == reachable

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_hard_equals_limited_distance_zero(self, log):
        _, hard_urls = run(log, SimpleStrategy(mode="hard"))
        _, limited_urls = run(log, LimitedDistanceStrategy(n=0))
        assert set(hard_urls) == set(limited_urls)
