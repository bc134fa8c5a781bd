"""Unit tests for the simulator main loop, on the hand-built tiny web.

The tiny web's layout (see conftest) makes every strategy's reachable
set exactly predictable::

    SEED(t) ──> A(t) ──> D(e) ──> E(e) ──> F(t)
         └────> B(e) ──> C(t)
         └────> DEAD (404)
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import (
    BreadthFirstStrategy,
    LimitedDistanceStrategy,
    SimpleStrategy,
)
from repro.errors import SimulationError

from conftest import A, B, C, D, DEAD, E, F, SEED

THAI_SET = frozenset({SEED, A, C, F})


def session(web, strategy, seeds=(SEED,), relevant_urls=THAI_SET, **config_kwargs):
    return CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=tuple(seeds),
            relevant_urls=relevant_urls,
        ),
        SessionConfig(**config_kwargs),
    )


def run(web, strategy, seeds=(SEED,), **config_kwargs):
    return session(web, strategy, seeds, sample_interval=1, **config_kwargs).run()


def crawled_urls(web, strategy, seeds=(SEED,)):
    urls = []
    run(web, strategy, seeds, on_fetch=lambda event: urls.append(event.url))
    return urls


class TestBreadthFirstOnTinyWeb:
    def test_crawls_everything(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy())
        assert result.pages_crawled == 8
        assert result.final_coverage == 1.0

    def test_bfs_order(self, tiny_web):
        urls = crawled_urls(tiny_web, BreadthFirstStrategy())
        assert urls == [SEED, A, B, DEAD, D, C, E, F]

    def test_harvest_rate(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy())
        assert result.final_harvest_rate == pytest.approx(4 / 8)


class TestHardFocusedOnTinyWeb:
    def test_stops_at_irrelevant_frontier(self, tiny_web):
        # Hard mode discards links from B, D, E — so C and F are missed.
        urls = crawled_urls(tiny_web, SimpleStrategy(mode="hard"))
        assert set(urls) == {SEED, A, B, DEAD, D}

    def test_coverage_is_half(self, tiny_web):
        result = run(tiny_web, SimpleStrategy(mode="hard"))
        assert result.final_coverage == pytest.approx(2 / 4)


class TestSoftFocusedOnTinyWeb:
    def test_full_coverage(self, tiny_web):
        result = run(tiny_web, SimpleStrategy(mode="soft"))
        assert result.final_coverage == 1.0
        assert result.pages_crawled == 8

    def test_high_priority_links_crawled_first(self, tiny_web):
        urls = crawled_urls(tiny_web, SimpleStrategy(mode="soft"))
        # Children of relevant pages (A, B, DEAD from SEED; D from A)
        # precede C (child of irrelevant B).
        assert urls.index(D) < urls.index(C)


class TestLimitedDistanceOnTinyWeb:
    """Distances: C is at 1 (via B); D=1, E=2, F=3 along the chain."""

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, {SEED, A, B, DEAD, D}),  # == hard-focused
            (1, {SEED, A, B, DEAD, D, C, E}),
            (2, {SEED, A, B, DEAD, D, C, E, F}),
        ],
    )
    def test_reach_by_n(self, tiny_web, n, expected):
        urls = crawled_urls(tiny_web, LimitedDistanceStrategy(n=n))
        assert set(urls) == expected

    def test_coverage_increases_with_n(self, tiny_web):
        coverages = [
            run(tiny_web, LimitedDistanceStrategy(n=n)).final_coverage for n in (0, 1, 2)
        ]
        assert coverages == sorted(coverages)
        assert coverages[-1] == 1.0

    def test_prioritized_same_reachability(self, tiny_web):
        for n in (0, 1, 2):
            plain = set(crawled_urls(tiny_web, LimitedDistanceStrategy(n=n)))
            prioritized = set(crawled_urls(tiny_web, LimitedDistanceStrategy(n=n, prioritized=True)))
            assert plain == prioritized

    def test_prioritized_visits_near_before_far(self, tiny_web):
        urls = crawled_urls(tiny_web, LimitedDistanceStrategy(n=3, prioritized=True))
        assert urls.index(C) < urls.index(E)


class TestSimulatorMechanics:
    def test_each_url_fetched_at_most_once(self, tiny_web):
        urls = crawled_urls(tiny_web, BreadthFirstStrategy())
        assert len(urls) == len(set(urls))

    def test_max_pages_cap(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy(), max_pages=3)
        assert result.pages_crawled == 3

    def test_requires_seeds(self, tiny_web):
        with pytest.raises(SimulationError):
            session(tiny_web, BreadthFirstStrategy(), seeds=()).run()

    def test_duplicate_seeds_deduplicated(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy(), seeds=(SEED, SEED, SEED))
        assert result.pages_crawled == 8

    def test_seed_outside_log_crawls_as_404(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy(), seeds=("http://offsite.example/",))
        assert result.pages_crawled == 1
        assert result.final_coverage == 0.0

    def test_relevant_set_computed_when_omitted(self, tiny_web):
        result = session(tiny_web, BreadthFirstStrategy(), relevant_urls=None).run()
        assert result.final_coverage == 1.0

    def test_events_fire_per_fetch(self, tiny_web):
        events = []
        session(tiny_web, BreadthFirstStrategy(), on_fetch=events.append).run()
        assert len(events) == 8
        assert events[0].url == SEED
        assert events[0].step == 1
        assert events[0].judgment.relevant

    def test_frontier_peak_reported(self, tiny_web):
        result = run(tiny_web, BreadthFirstStrategy())
        assert result.frontier_peak >= 3  # SEED expands into 3 children

    def test_result_series_name_matches_strategy(self, tiny_web):
        result = run(tiny_web, SimpleStrategy(mode="soft"))
        assert result.series.name == "soft-focused"
        assert result.strategy == "soft-focused"


class TestRediscoverySemantics:
    """A URL pruned on one path must stay reachable via a better path."""

    def test_pruned_url_rescheduled_at_smaller_distance(self):
        from repro.webspace.crawllog import CrawlLog
        from repro.webspace.virtualweb import VirtualWebSpace
        from conftest import english_page, thai_page

        # SEED -> E1 -> E2 -> TARGET (distance 3, pruned at N=2)
        # SEED -> T1(thai, crawled later) -> E3 -> TARGET (distance 2, kept)
        s, e1, e2, e3, t1, target = (
            "http://s.th/", "http://e1.com/", "http://e2.com/",
            "http://e3.com/", "http://t1.th/", "http://target.th/",
        )
        log = CrawlLog(
            [
                thai_page(s, outlinks=(e1, t1)),
                english_page(e1, outlinks=(e2,)),
                english_page(e2, outlinks=(target,)),
                thai_page(t1, outlinks=(e3,)),
                english_page(e3, outlinks=(target,)),
                thai_page(target),
            ]
        )
        web = VirtualWebSpace(log)
        urls = []
        session(
            web,
            LimitedDistanceStrategy(n=2),
            seeds=(s,),
            relevant_urls=frozenset({s, t1, target}),
            on_fetch=lambda event: urls.append(event.url),
        ).run()
        assert target in urls
