"""Unit tests for repro.webspace.crawllog."""

import gzip
import json

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


class TestPersistence:
    def test_round_trip_plain(self, tmp_path):
        log = CrawlLog(make_pages(10))
        path = tmp_path / "log.jsonl"
        log.save(path)
        loaded = CrawlLog.load(path)
        assert list(loaded) == list(log)

    def test_round_trip_gzip(self, tmp_path):
        log = CrawlLog(make_pages(10))
        path = tmp_path / "log.jsonl.gz"
        log.save(path)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # really gzip
        assert list(CrawlLog.load(path)) == list(log)

    def test_header_written(self, tmp_path):
        path = tmp_path / "log.jsonl"
        CrawlLog(make_pages(2)).save(path)
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["format"] == "repro-lswc-crawllog"
        assert header["pages"] == 2

    def test_load_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(CrawlLogError, match="empty"):
            CrawlLog.load(path)

    def test_load_wrong_format_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(CrawlLogError, match="not a crawl-log"):
            CrawlLog.load(path)

    def test_load_wrong_version_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "repro-lswc-crawllog", "version": 99}\n')
        with pytest.raises(CrawlLogError, match="version"):
            CrawlLog.load(path)

    def test_load_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-lswc-crawllog", "version": 1}\n'
            '{"u": "http://ok.example/"}\n'
            "this is not json\n"
        )
        with pytest.raises(CrawlLogError, match=":3:"):
            CrawlLog.load(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ('"lc": [9]', "link_cues length 1 != outlink count 2"),
            ('"lc": [9, 14]', "invalid link cue byte 14"),
            ('"lc": [9, 32]', "invalid link cue byte 32"),
        ],
    )
    def test_load_rejects_ragged_or_undecodable_cue_rows(self, tmp_path, row, message):
        """Used to load fine and raise a bare IndexError from inside a
        context strategy's expand, mid-crawl."""
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"format": "repro-lswc-crawllog", "version": 1}\n'
            '{"u": "http://ok.example/", "o": ["http://a.example/", "http://b.example/"], '
            + row
            + "}\n"
        )
        with pytest.raises(CrawlLogError, match=f":2:.*ok.example.*{message}"):
            CrawlLog.load(path)

    def test_load_malformed_header_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("garbage\n")
        with pytest.raises(CrawlLogError, match="malformed header"):
            CrawlLog.load(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"format": "repro-lswc-crawllog", "version": 1}\n'
            "\n"
            '{"u": "http://ok.example/"}\n'
            "\n"
        )
        assert len(CrawlLog.load(path)) == 1

    def test_rich_records_survive_round_trip(self, tmp_path, tiny_pages):
        log = CrawlLog(tiny_pages)
        path = tmp_path / "tiny.jsonl.gz"
        log.save(path)
        loaded = CrawlLog.load(path)
        assert list(loaded) == tiny_pages
