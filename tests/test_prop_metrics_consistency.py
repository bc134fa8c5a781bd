"""Cross-checks between independent accounting paths.

The metrics recorder, the event stream and the LinkDB each observe the
same crawl through different code; these properties assert they never
disagree — the strongest guard against silent bookkeeping drift.
"""

from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.webspace.crawllog import CrawlLog
from repro.webspace.linkdb import LinkDB
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.virtualweb import VirtualWebSpace

N_PAGES = 12


@st.composite
def random_webs(draw):
    urls = [f"http://h{index % 4}.example/p{index}" for index in range(N_PAGES)]
    records = []
    for index, url in enumerate(urls):
        is_ok = draw(st.booleans())
        is_thai = draw(st.booleans())
        targets = draw(
            st.lists(st.integers(min_value=0, max_value=N_PAGES - 1), max_size=4, unique=True)
        )
        records.append(
            PageRecord(
                url=url,
                status=200 if is_ok else 404,
                charset="TIS-620" if is_thai else None,
                true_language=Language.THAI if is_thai else Language.OTHER,
                outlinks=tuple(urls[t] for t in targets if t != index) if is_ok else (),
                size=50,
            )
        )
    return CrawlLog(records)


def crawl_with_events(log: CrawlLog, strategy):
    events = []
    relevant = relevant_url_set(log, Language.THAI)
    result = CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=VirtualWebSpace(log),
            classifier=Classifier(Language.THAI),
            seeds=(next(iter(log.urls())),),
            relevant_urls=relevant,
        ),
        SessionConfig(sample_interval=1, on_fetch=events.append),
    ).run()
    return result, events, relevant


class TestRecorderAgreesWithEvents:
    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_series_matches_brute_force_recomputation(self, log):
        result, events, relevant = crawl_with_events(log, SimpleStrategy(mode="soft"))
        series = result.series
        assert len(series.pages) == len(events)
        relevant_so_far = 0
        covered_so_far = 0
        for index, event in enumerate(events):
            if event.judgment.relevant:
                relevant_so_far += 1
            if event.url in relevant:
                covered_so_far += 1
            steps = index + 1
            assert series.pages[index] == steps
            assert abs(series.harvest_rate[index] - relevant_so_far / steps) < 1e-12
            if relevant:
                assert abs(series.coverage[index] - covered_so_far / len(relevant)) < 1e-12
            assert series.queue_size[index] == event.queue_size

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_summary_matches_last_event(self, log):
        result, events, _ = crawl_with_events(log, BreadthFirstStrategy())
        assert result.pages_crawled == len(events)
        assert result.summary.pages_crawled == len(events)
        if events:
            assert events[-1].queue_size == 0  # frontier drained

    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_scheduled_count_monotone_and_bounds_crawl(self, log):
        _, events, _ = crawl_with_events(log, BreadthFirstStrategy())
        counts = [event.scheduled_count for event in events]
        assert counts == sorted(counts)
        for index, event in enumerate(events):
            # crawled (index+1) + queued <= ever scheduled
            assert index + 1 + event.queue_size <= event.scheduled_count + 1


class TestLinkDbAgreesWithCrawl:
    @given(random_webs())
    @settings(max_examples=40, deadline=None)
    def test_bfs_visits_exactly_linkdb_closure(self, log):
        result, events, _ = crawl_with_events(log, BreadthFirstStrategy())
        seed = next(iter(log.urls()))
        closure = LinkDB(log).reachable_from([seed])
        assert {event.url for event in events} == closure

    @given(random_webs())
    @settings(max_examples=30, deadline=None)
    def test_backward_forward_duality(self, log):
        db = LinkDB(log)
        forward_edges = set(db.edges())
        backward_edges = {
            (source, record.url)
            for record in log
            for source in db.backward(record.url)
        }
        # Every forward edge whose target exists in the log appears in
        # the backward view, and vice versa.
        in_log_forward = {(s, t) for s, t in forward_edges if t in log}
        assert backward_edges == in_log_forward
