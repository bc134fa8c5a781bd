"""Error-path coverage: malformed inputs and contract violations.

Three families the happy-path suites never touch: a crawl log fed a
duplicate record, unknown-page lookups through the virtual web space,
and frontier misuse.  Damaged page-store files are
``tests/test_store_format.py``'s.
"""

import pytest

from repro.core.frontier import (
    Candidate,
    FIFOFrontier,
    PriorityFrontier,
    ReprioritizableFrontier,
)
from repro.errors import CrawlLogError, FrontierError, UnknownPageError
from repro.webspace.crawllog import CrawlLog
from repro.webspace.virtualweb import STATUS_UNKNOWN_URL, VirtualWebSpace

from conftest import SEED, A, thai_page


class TestCrawlLogParsing:
    def test_duplicate_record_rejected(self):
        log = CrawlLog([thai_page(SEED)])
        with pytest.raises(CrawlLogError, match="duplicate"):
            log.add(thai_page(SEED))


class TestUnknownPage:
    def test_crawl_log_getitem_raises(self):
        log = CrawlLog([thai_page(SEED)])
        with pytest.raises(UnknownPageError) as excinfo:
            log["http://nowhere.invalid/"]
        assert excinfo.value.url == "http://nowhere.invalid/"

    def test_unknown_page_error_is_catchable_as_keyerror(self):
        log = CrawlLog([thai_page(SEED)])
        with pytest.raises(KeyError):
            log["http://nowhere.invalid/"]

    def test_fetch_degrades_unknown_urls_to_404(self):
        """``VirtualWebSpace.fetch`` deliberately does NOT propagate
        :class:`UnknownPageError` — a live crawler sees a 404, not an
        exception — while direct log indexing through the web space's
        crawl log still raises it."""
        web = VirtualWebSpace(CrawlLog([thai_page(SEED)]))
        response = web.fetch("http://nowhere.invalid/")
        assert response.status == STATUS_UNKNOWN_URL
        assert response.record is None and response.outlinks == ()
        with pytest.raises(UnknownPageError):
            web.crawl_log["http://nowhere.invalid/"]


class TestFrontierMisuse:
    @pytest.mark.parametrize(
        "make", [FIFOFrontier, PriorityFrontier, ReprioritizableFrontier]
    )
    def test_pop_from_empty_raises(self, make):
        with pytest.raises(FrontierError, match="pop from empty"):
            make().pop()

    @pytest.mark.parametrize(
        "make", [FIFOFrontier, PriorityFrontier, ReprioritizableFrontier]
    )
    def test_pop_after_draining_raises(self, make):
        frontier = make()
        frontier.push(Candidate(url=SEED))
        frontier.pop()
        with pytest.raises(FrontierError, match="pop from empty"):
            frontier.pop()

    def test_reprioritizable_double_push_rejected(self):
        frontier = ReprioritizableFrontier()
        frontier.push(Candidate(url=A))
        with pytest.raises(FrontierError, match="already queued"):
            frontier.push(Candidate(url=A))
