"""Unit tests for repro.core.visitor."""

from repro.charset.languages import Language
from repro.core.strategies.textcues import context_fractions
from repro.core.visitor import Visitor
from repro.graphgen.htmlsynth import HtmlSynthesizer
from repro.urlkit.extract import LinkContext
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import DEAD, SEED, A, B


class TestFetch:
    def test_counts_pages_and_bytes(self, tiny_web):
        visitor = Visitor(tiny_web)
        visitor.fetch(SEED)
        visitor.fetch(A)
        assert visitor.pages_fetched == 2
        assert visitor.bytes_fetched == 4096  # two 2048-byte pages

    def test_non_ok_fetch_counts_zero_bytes(self, tiny_web):
        # DEAD has a crawl-log record (a captured 404): it was genuinely
        # fetched, so it counts as a page — with zero bytes.
        visitor = Visitor(tiny_web)
        visitor.fetch(DEAD)
        assert visitor.pages_fetched == 1
        assert visitor.bytes_fetched == 0
        assert visitor.fetches_failed == 0

    def test_unknown_url_counts_as_failed_not_page(self, tiny_web):
        """A record-less 404 (URL absent from the log) is a *failed*
        fetch: it must not inflate pages_fetched or the harvest-rate
        denominator's transfer accounting."""
        visitor = Visitor(tiny_web)
        visitor.fetch("http://nowhere.invalid/")
        assert visitor.pages_fetched == 0
        assert visitor.bytes_fetched == 0
        assert visitor.fetches_failed == 1

    def test_snapshot_restore_roundtrip(self, tiny_web):
        visitor = Visitor(tiny_web)
        visitor.fetch(SEED)
        visitor.fetch("http://nowhere.invalid/")
        restored = Visitor(tiny_web)
        restored.restore(visitor.snapshot())
        assert restored.pages_fetched == 1
        assert restored.bytes_fetched == 2048
        assert restored.fetches_failed == 1

    def test_web_accessor(self, tiny_web):
        assert Visitor(tiny_web).web is tiny_web


class TestExtract:
    def test_record_outlinks_by_default(self, tiny_web):
        visitor = Visitor(tiny_web)
        response = visitor.fetch(SEED)
        assert visitor.extract(response) == response.outlinks

    def test_non_ok_page_yields_nothing(self, tiny_web):
        visitor = Visitor(tiny_web)
        assert visitor.extract(visitor.fetch(DEAD)) == ()

    def test_body_extraction_matches_record(self, tiny_log):
        """Links parsed from synthesized HTML equal the crawl-log record —
        the contract that makes body-mode and record-mode simulations
        interchangeable."""
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        visitor = Visitor(web, extract_from_body=True)
        for url in (SEED, A, B):
            response = visitor.fetch(url)
            assert visitor.extract(response) == response.record.outlinks

    def test_body_mode_falls_back_without_body(self, tiny_web):
        visitor = Visitor(tiny_web, extract_from_body=True)
        response = visitor.fetch(SEED)
        assert visitor.extract(response) == response.outlinks


class TestExtractContexts:
    """Contexts come back aligned 1:1 with whatever link list the engine
    settled on — the record's own, or one a defense or the adversary's
    link rewriting filtered, reordered or extended."""

    def test_record_outlinks_map_one_to_one(self, tiny_web):
        visitor = Visitor(tiny_web)
        response = visitor.fetch(SEED)
        contexts = visitor.extract_contexts(response, visitor.extract(response))
        assert [context.url for context in contexts] == [A, B, DEAD]
        # Thai page, no cue column: every link reads as Thai.
        assert [context_fractions(context, Language.THAI) for context in contexts] == [
            (1.0, 1.0)
        ] * 3

    def test_filtered_reordered_and_foreign_urls_realign_by_url(self, tiny_web):
        visitor = Visitor(tiny_web)
        response = visitor.fetch(SEED)
        foreign = "http://alias.example/?sid=1"
        for outlinks in ((A, DEAD), (DEAD, B, A), (B, foreign, A)):
            contexts = visitor.extract_contexts(response, outlinks)
            assert tuple(context.url for context in contexts) == outlinks
            for context in contexts:
                expected = (0.0, 0.0) if context.url == foreign else (1.0, 1.0)
                assert context_fractions(context, Language.THAI) == expected
                assert (context.anchor_text == "") == (context.url == foreign)

    def test_equal_but_not_identical_outlinks_still_align(self, tiny_web):
        visitor = Visitor(tiny_web)
        response = visitor.fetch(SEED)
        copied = tuple(list(response.outlinks))
        assert copied is not response.record.outlinks
        contexts = visitor.extract_contexts(response, copied)
        assert [context.url for context in contexts] == [A, B, DEAD]

    def test_failed_fetch_and_non_html_yield_nothing(self, tiny_web):
        visitor = Visitor(tiny_web)
        assert visitor.extract_contexts(visitor.fetch(DEAD), (A,)) == ()
        assert visitor.extract_contexts(visitor.fetch("http://nowhere.invalid/"), (A,)) == ()
        pdf = PageRecord(url="http://doc.example/a.pdf", content_type="application/pdf")
        web = VirtualWebSpace(CrawlLog([pdf]))
        assert Visitor(web).extract_contexts(web.fetch(pdf.url), (A,)) == ()

    def test_no_outlinks_yield_nothing(self, tiny_web):
        visitor = Visitor(tiny_web)
        assert visitor.extract_contexts(visitor.fetch(SEED), ()) == ()

    def test_no_record_and_no_body_is_none(self, tiny_web):
        recordless = Visitor(tiny_web).fetch(SEED)._replace(record=None)
        assert Visitor(tiny_web).extract_contexts(recordless, (A,)) is None

    def test_body_mode_parses_the_markup(self, tiny_log):
        web = VirtualWebSpace(tiny_log, body_synthesizer=HtmlSynthesizer())
        visitor = Visitor(web, extract_from_body=True)
        response = visitor.fetch(SEED)
        outlinks = visitor.extract(response)
        contexts = visitor.extract_contexts(response, outlinks)
        assert tuple(context.url for context in contexts) == outlinks
        assert all(isinstance(context, LinkContext) for context in contexts)
