"""Unit tests for repro.webspace.virtualweb."""

import pickle

import pytest

from repro.graphgen.htmlsynth import HtmlSynthesizer
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.virtualweb import (
    STATUS_UNKNOWN_URL,
    FetchResponse,
    VirtualWebSpace,
    make_cached_synthesizer,
)

from conftest import DEAD, SEED, A


class TestFetch:
    def test_known_page_properties(self, tiny_web):
        response = tiny_web.fetch(SEED)
        assert response.ok
        assert response.is_html
        assert response.charset == "TIS-620"
        assert response.outlinks == (A, "http://b.com/", DEAD)
        assert response.record is not None

    def test_non_ok_page_has_no_outlinks(self, tiny_web):
        response = tiny_web.fetch(DEAD)
        assert response.status == 404
        assert not response.ok
        assert response.outlinks == ()

    def test_unknown_url_answers_404(self, tiny_web):
        response = tiny_web.fetch("http://never-seen.example/")
        assert response.status == STATUS_UNKNOWN_URL
        assert response.record is None
        assert response.outlinks == ()

    def test_fetch_count_increments(self, tiny_web):
        assert tiny_web.fetch_count == 0
        tiny_web.fetch(SEED)
        tiny_web.fetch("http://never-seen.example/")
        assert tiny_web.fetch_count == 2

    def test_contains(self, tiny_web):
        assert SEED in tiny_web
        assert "http://never-seen.example/" not in tiny_web

    def test_no_body_without_synthesizer(self, tiny_web):
        assert tiny_web.fetch(SEED).body is None

    def test_non_html_page_outlinks_suppressed(self):
        record = PageRecord(
            url="http://x.example/doc.pdf",
            content_type="application/pdf",
            outlinks=("http://y.example/",),
        )
        web = VirtualWebSpace(CrawlLog([record]))
        assert web.fetch("http://x.example/doc.pdf").outlinks == ()


class TestFetchResponse:
    """The tuple-backed response: what the dataclass promised still holds."""

    def test_defaults_are_an_organic_recordless_response(self):
        response = FetchResponse("http://x.example/", 200, "text/html", None, (), 0)
        assert response.ok and response.is_html
        assert (response.body, response.record, response.truncated) == (None, None, False)
        assert (response.fault, response.redirect_to, response.adversary) == (None, None, None)
        assert (response.page_id, response.outlink_ids) == (None, None)

    def test_positional_fetch_equals_the_keyword_form(self, tiny_web, tiny_log):
        record = tiny_log.get(SEED)
        by_keyword = FetchResponse(
            url=record.url,
            status=record.status,
            content_type=record.content_type,
            charset=record.charset,
            outlinks=record.outlinks,
            size=record.size,
            record=record,
        )
        assert tiny_web.fetch(SEED) == by_keyword
        assert hash(tiny_web.fetch(SEED)) == hash(by_keyword)
        assert tiny_web.fetch(SEED) != tiny_web.fetch(DEAD)

    def test_replace_derives_and_the_original_is_immutable(self, tiny_web):
        response = tiny_web.fetch(SEED)
        garbled = response._replace(body=b"\xff", truncated=True, fault="truncate")
        assert (garbled.body, garbled.truncated, garbled.fault) == (b"\xff", True, "truncate")
        assert garbled.url is response.url and garbled.record is response.record
        assert response.fault is None and not response.truncated
        with pytest.raises(AttributeError):
            response.status = 500
        with pytest.raises(ValueError, match="unexpected field"):
            response._replace(no_such_field=1)

    def test_pickle_round_trip(self, tiny_log):
        # Sweep workers ship responses between processes.
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        for url in (SEED, DEAD, "http://never-seen.example/"):
            response = web.fetch(url)._replace(page_id=3, outlink_ids=(1, 2))
            clone = pickle.loads(pickle.dumps(response))
            assert type(clone) is FetchResponse and clone == response


class TestBodySynthesis:
    def test_body_present_for_ok_html(self, tiny_log):
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        body = web.fetch(SEED).body
        assert body is not None
        assert body.startswith(b"<!DOCTYPE html>")

    def test_no_body_for_non_ok(self, tiny_log):
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        assert web.fetch(DEAD).body is None

    def test_body_deterministic(self, tiny_log):
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        assert web.fetch(SEED).body == web.fetch(SEED).body


class TestCachedSynthesizer:
    def test_returns_same_bytes(self, tiny_log):
        calls = []
        inner = HtmlSynthesizer()

        def counting(record):
            calls.append(record.url)
            return inner(record)

        cached = make_cached_synthesizer(counting)
        record = tiny_log[SEED]
        first = cached(record)
        second = cached(record)
        assert first == second
        assert calls == [SEED]  # second call served from cache

    def test_eviction_bounds_memory(self, tiny_pages):
        cached = make_cached_synthesizer(HtmlSynthesizer(), max_entries=2)
        html_pages = [page for page in tiny_pages if page.ok][:3]
        for page in html_pages:
            cached(page)
        # Re-rendering the evicted first page still works and is equal.
        assert cached(html_pages[0]) == HtmlSynthesizer()(html_pages[0])

    def test_eviction_order_is_first_rendered_first_out(self, tiny_pages):
        rendered = []
        inner = HtmlSynthesizer()

        def counting(record):
            rendered.append(record.url)
            return inner(record)

        cached = make_cached_synthesizer(counting, max_entries=2)
        a, b, c = [page for page in tiny_pages if page.ok][:3]
        for page in (a, b, a, c, b, a, b):
            # a b | a hits (no refresh) | c evicts a | b hits | a evicts b | b evicts c
            cached(page)
        assert rendered == [a.url, b.url, c.url, a.url, b.url]
