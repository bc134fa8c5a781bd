"""Unit tests for repro.webspace.crawllog."""

import pytest

from repro.errors import CrawlLogError, UnknownPageError
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord


def make_pages(count: int) -> list[PageRecord]:
    return [PageRecord(url=f"http://h.example/p/{index}.html") for index in range(count)]


class TestCrawlLogStore:
    def test_empty(self):
        log = CrawlLog()
        assert len(log) == 0
        assert "http://x.example/" not in log

    def test_add_and_get(self):
        page = PageRecord(url="http://x.example/")
        log = CrawlLog([page])
        assert len(log) == 1
        assert log.get("http://x.example/") is page
        assert log["http://x.example/"] is page

    def test_get_missing_returns_none(self):
        assert CrawlLog().get("http://x.example/") is None

    def test_getitem_missing_raises(self):
        with pytest.raises(UnknownPageError) as excinfo:
            CrawlLog()["http://x.example/"]
        assert "http://x.example/" in str(excinfo.value)

    def test_unknown_page_error_is_also_keyerror(self):
        with pytest.raises(KeyError):
            CrawlLog()["http://x.example/"]

    def test_duplicate_url_rejected(self):
        log = CrawlLog([PageRecord(url="http://x.example/")])
        with pytest.raises(CrawlLogError):
            log.add(PageRecord(url="http://x.example/"))

    def test_iteration_preserves_insertion_order(self):
        pages = make_pages(5)
        log = CrawlLog(pages)
        assert list(log) == pages
        assert list(log.urls()) == [page.url for page in pages]

    def test_contains(self):
        log = CrawlLog(make_pages(3))
        assert "http://h.example/p/1.html" in log
        assert "http://h.example/p/9.html" not in log
