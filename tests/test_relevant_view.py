"""The coverage denominator is a memoised property of the page source.

The paper's explicit-recall denominator "can be determined beforehand by
analyzing the input crawl logs" (§3.4): it is computed once per web and
language, not once per session.  ``CrawlLog.relevant_url_view`` and
``PageStore.relevant_url_view`` hand out that one object; ``CrawlLog.add``
is the only thing that invalidates it.
"""

from __future__ import annotations

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.experiments.datasets import build_dataset_store, open_dataset_store
from repro.experiments.golden import GOLDEN_SCALE, cued_golden_dataset, golden_dataset
from repro.graphgen.profiles import thai_profile
from repro.webspace import crawllog
from repro.webspace.crawllog import CrawlLog
from repro.webspace.stats import relevant_url_set
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import english_page, thai_page

SEED = "http://a.co.th/"
LATE = "http://a.co.th/late.html"


@pytest.fixture(scope="module", params=["golden", "cued"])
def dataset(request):
    return golden_dataset() if request.param == "golden" else cued_golden_dataset()


@pytest.fixture(scope="module")
def store_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("relevant-view") / "golden.lswc"
    build_dataset_store(thai_profile().scaled(GOLDEN_SCALE), path)
    dataset = open_dataset_store(path)
    yield dataset
    dataset.crawl_log.close()


def _count_scans(monkeypatch) -> list:
    """Every record scan for a denominator from now on, by target language."""
    scans: list = []

    def counting(log, language):
        scans.append(language)
        return relevant_url_set(log, language)

    monkeypatch.setattr(crawllog, "relevant_url_set", counting)
    return scans


class TestCrawlLogView:
    @pytest.mark.parametrize("language", list(Language), ids=str)
    def test_equals_the_record_scan(self, dataset, language):
        view = dataset.crawl_log.relevant_url_view(language)
        assert view == relevant_url_set(dataset.crawl_log, language)

    def test_same_object_across_calls_and_sessions(self, dataset, monkeypatch):
        log = dataset.crawl_log
        view = log.relevant_url_view(dataset.target_language)
        assert log.relevant_url_view(dataset.target_language) is view
        assert dataset.relevant_urls() is view
        scans = _count_scans(monkeypatch)
        by_dataset = CrawlRequest(strategy="soft-focused", dataset=dataset)
        by_web = CrawlRequest(
            strategy="breadth-first",
            web=VirtualWebSpace(log),
            classifier=Classifier(dataset.target_language),
            seeds=dataset.seed_urls,
        )
        for request in (by_dataset, by_web):
            assert request.resolve().relevant_urls is view
            CrawlSession(request, SessionConfig(max_pages=20)).run()
        assert scans == []

    def test_views_are_per_language(self, dataset):
        log = dataset.crawl_log
        thai = log.relevant_url_view(Language.THAI)
        japanese = log.relevant_url_view(Language.JAPANESE)
        assert thai and japanese and thai.isdisjoint(japanese)
        assert log.relevant_url_view(Language.THAI) is thai
        assert log.relevant_url_view(Language.JAPANESE) is japanese

    def test_add_invalidates_and_the_next_session_counts_it(self):
        log = CrawlLog([thai_page(SEED, outlinks=(LATE,)), english_page("http://b.com/")])
        before = log.relevant_url_view(Language.THAI)
        assert before == {SEED}

        def total_relevant() -> int:
            request = CrawlRequest(
                strategy="soft-focused",
                web=VirtualWebSpace(log),
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
            )
            return CrawlSession(request, SessionConfig()).run().summary.total_relevant

        assert total_relevant() == 1
        log.add(thai_page(LATE))
        after = log.relevant_url_view(Language.THAI)
        assert after is not before and after == {SEED, LATE}
        assert before == {SEED}  # a session already holding the old view keeps it
        assert total_relevant() == 2


class TestStoreView:
    def test_memoised_and_equal_to_the_frozenset(self, store_dataset):
        store = store_dataset.crawl_log
        view = store.relevant_url_view(Language.THAI)
        assert store.relevant_url_view(Language.THAI) is view
        assert store_dataset.relevant_urls() is view
        assert set(view) == relevant_url_set(store, Language.THAI)
        assert len(view) == len(relevant_url_set(store, Language.THAI))

    def test_sessions_share_the_view(self, store_dataset):
        view = store_dataset.crawl_log.relevant_url_view(Language.THAI)
        for strategy in ("soft-focused", "hard-focused"):
            request = CrawlRequest(strategy=strategy, dataset=store_dataset)
            assert request.resolve().relevant_urls is view
