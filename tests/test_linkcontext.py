"""The link-cue byte, and scoring a record's links from it.

Record-mode context strategies score a page's links from one
``RecordLinkContexts`` row: a table entry under the cue byte
(``anchor_affinities`` / ``link_fractions``), and for a link whose
around text mixes two scripts a sum of word lengths
(``CuedLinkContext.around_fraction``) — no text is written.  That is
only right while (a) every vocabulary word is wholly inside one script
and holds no whitespace and (b) all of it agrees with scoring the text
— so both are pinned here, exactly, against the eager whole-record
synthesis (:func:`synthesize_link_contexts`, the reference).
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate
from repro.core.strategies import InfoSpidersStrategy, PalContentLinkStrategy, PDDHybridStrategy
from repro.core.strategies.textcues import (
    anchor_affinities,
    anchor_affinity,
    context_fractions,
    language_char_fraction,
    link_fractions,
)
from repro.core.visitor import Visitor
from repro.errors import CrawlLogError, SimulationError
from repro.experiments.datasets import build_dataset
from repro.experiments.golden import GOLDEN_SCALE, cued_golden_dataset, record_golden_trace
from repro.experiments.tournament import DEFAULT_SEEDS, cued_thai_profile
from repro.graphgen.htmlsynth import HtmlSynthesizer
from repro.graphgen.linkcontext import (
    _CUE_TABLE,
    CUE_LANGUAGES,
    CuedLinkContext,
    RecordLinkContexts,
    _word_lengths,
    cue_byte,
    cue_language,
    has_anchor_cue,
    has_around_cue,
    record_link_contexts,
)
from repro.graphgen.textgen import FLAVORS, _flavor_tables, flavor_for
from repro.urlkit.extract import LinkContext
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import VALID_LINK_CUES, PageRecord
from repro.webspace.virtualweb import VirtualWebSpace

TARGETS = (Language.THAI, Language.JAPANESE, Language.KOREAN, Language.OTHER)

#: Share of links allowed to fall back to their text.  Measured 0-6.8 %
#: over these universes and targets; "always synthesize" is 100 %.
MAX_FALLBACK_SHARE = 0.15


def synthesize_link_contexts(record: PageRecord) -> tuple[LinkContext, ...]:
    """Every link of ``record`` with its text spelled out, eagerly: the
    reference the table and the word-length sums are compared against."""
    return tuple(
        LinkContext(context.url, *context.texts()) for context in record_link_contexts(record)
    )


class TestCueByte:
    @pytest.mark.parametrize("language", CUE_LANGUAGES)
    @pytest.mark.parametrize("anchor", [False, True])
    @pytest.mark.parametrize("around", [False, True])
    def test_round_trip(self, language, anchor, around):
        cue = cue_byte(language, anchor=anchor, around=around)
        assert cue in VALID_LINK_CUES
        assert has_anchor_cue(cue) is anchor
        assert has_around_cue(cue) is around
        assert cue_language(cue) is (language if anchor or around else None)

    def test_flags_without_a_language_mean_the_source_language(self):
        for cue in (0x08, 0x10, 0x18):
            assert cue in VALID_LINK_CUES
            assert cue_language(cue) is None

    @pytest.mark.parametrize("cue", [0x0E, 0x0F, 0x1F, 0x20, 0xFF, 256, -1])
    def test_undecodable_bytes_are_a_named_error(self, cue):
        for decode in (cue_language, has_anchor_cue, has_around_cue):
            with pytest.raises(CrawlLogError, match="invalid link cue byte"):
                decode(cue)

    def test_the_table_decodes_exactly_the_valid_bytes(self):
        assert len(_CUE_TABLE) == 256
        decodable = {byte for byte, entry in enumerate(_CUE_TABLE) if entry is not None}
        assert decodable == VALID_LINK_CUES


class TestVocabularyIsScriptPure:
    """The invariant the closed form rests on: a vocabulary edit that
    breaks it must fail here, not silently skew a tournament."""

    FLAVORS_IN_USE = sorted({flavor_for(language) for language in Language})

    def test_flavors_in_use_exist(self):
        assert set(self.FLAVORS_IN_USE) <= set(FLAVORS)

    @staticmethod
    def check(vocabulary, flavor, language):
        expected = 1.0 if flavor_for(language) == flavor else 0.0
        assert vocabulary
        for word in vocabulary:
            assert word and not any(char.isspace() for char in word), repr(word)
            assert language_char_fraction(word, language) == expected, repr(word)

    @pytest.mark.parametrize("flavor", FLAVORS_IN_USE)
    @pytest.mark.parametrize("language", list(Language))
    def test_every_word_scores_exactly_zero_or_one(self, flavor, language):
        self.check(_flavor_tables(flavor)[0], flavor, language)

    @pytest.mark.parametrize("flavor", FLAVORS_IN_USE)
    def test_the_length_table_is_the_vocabulary_s(self, flavor):
        vocabulary, cumulative = _flavor_tables(flavor)[:2]
        lengths, same_cumulative = _word_lengths(flavor)
        assert lengths == [len(word) for word in vocabulary]
        assert same_cumulative is cumulative

    @pytest.mark.parametrize("bad", ["", "two words", "tab\tbed", "line\n"])
    def test_an_empty_or_spaced_word_fails_the_check(self, bad):
        """Word lengths stand in for counted characters only while a
        word is non-empty and holds no whitespace."""
        with pytest.raises(AssertionError):
            self.check(("page", bad), "english", Language.OTHER)


@pytest.fixture(scope="module", params=DEFAULT_SEEDS)
def cued_records(request):
    """Every OK HTML record of one cued golden-scale dataset, each with
    its eagerly synthesized contexts (the reference)."""
    dataset = build_dataset(cued_thai_profile(GOLDEN_SCALE, request.param))
    return [
        (record, synthesize_link_contexts(record))
        for record in dataset.crawl_log
        if record.ok and record.is_html
    ]


class TestClosedFormEqualsScoringTheText:
    @pytest.mark.parametrize("target", TARGETS)
    def test_fractions_are_exact_and_mostly_closed_form(self, cued_records, target):
        links = fallbacks = 0
        for record, eager in cued_records:
            lazy = record_link_contexts(record)
            assert [context.url for context in lazy] == list(record.outlinks)
            assert [context.url for context in eager] == list(record.outlinks)
            # The page row == the per-context helpers == the text, whether
            # the contexts arrive as the row, as its contexts, or as text.
            fractions = link_fractions(lazy, target)
            assert fractions == [context_fractions(context, target) for context in lazy]
            assert fractions == link_fractions(lazy[:], target) == link_fractions(eager, target)
            affinities = anchor_affinities(lazy, target)
            assert affinities == [anchor_affinity(context, target) for context in lazy]
            assert affinities == anchor_affinities(lazy[:], target) == anchor_affinities(eager, target)
            for context, reference in zip(lazy, eager):
                anchor = language_char_fraction(reference.anchor_text, target)
                around = language_char_fraction(reference.around_text, target)
                # Exact, not approx: priorities are int(score * 1000).
                assert context_fractions(context, target) == (anchor, around)
                assert context_fractions(reference, target) == (anchor, around)
                assert anchor_affinity(context, target) == max(anchor, 0.5 * around)
                assert anchor_affinity(reference, target) == max(anchor, 0.5 * around)
                known_anchor, known_around = context.cue_fractions(target)
                assert known_anchor == anchor
                links += 1
                fallbacks += known_around is None
        assert links > 5_000
        assert fallbacks / links <= MAX_FALLBACK_SHARE

    def test_lazy_text_equals_eager_text(self, cued_records):
        for record, eager in cued_records[:200]:
            for context, reference in zip(record_link_contexts(record), eager):
                assert context.anchor_text == reference.anchor_text
                assert context.around_text == reference.around_text

    def test_some_links_do_need_their_text(self, cued_records):
        """The fallback is live on these webs, so the equality above
        covers it (Thai target: cued links out of non-Thai pages)."""
        assert any(
            context.cue_fractions(Language.THAI)[1] is None
            for record, _ in cued_records
            for context in record_link_contexts(record)
        )


class TestCueLessRecord:
    URLS = ("http://a.example/", "http://b.example/")

    def record(self, language, **extra):
        return PageRecord(
            url="http://source.example/", true_language=language, outlinks=self.URLS, **extra
        )

    @pytest.mark.parametrize("source", list(Language))
    @pytest.mark.parametrize("target", list(Language))
    def test_scores_as_all_source_language(self, source, target):
        expected = 1.0 if flavor_for(source) == flavor_for(target) else 0.0
        contexts = record_link_contexts(self.record(source))
        assert [context.url for context in contexts] == list(self.URLS)
        for context in contexts:
            assert context.cue_fractions(target) == (expected, expected)
            assert language_char_fraction(context.anchor_text, target) == expected
            assert language_char_fraction(context.around_text, target) == expected

    def test_zero_cues_equal_no_cues(self):
        bare = synthesize_link_contexts(self.record(Language.THAI))
        zeroed = synthesize_link_contexts(self.record(Language.THAI, link_cues=(0, 0)))
        assert bare == zeroed

    def test_hand_built_ragged_or_undecodable_cues_fail_by_name(self):
        with pytest.raises(ValueError):
            record_link_contexts(self.record(Language.THAI, link_cues=(0,)))
        (context, _) = record_link_contexts(self.record(Language.THAI, link_cues=(0x0E, 0)))
        with pytest.raises(CrawlLogError, match="source.example.*invalid link cue byte 14"):
            context.cue_fractions(Language.THAI)

    @pytest.mark.parametrize("cue", [0x0E, 0x20, 0xFF, 256, -1, -256])
    @pytest.mark.parametrize("ask", [anchor_affinities, link_fractions])
    def test_a_byte_that_is_no_cue_fails_by_name_on_the_page_row(self, ask, cue):
        """Neither an ``IndexError`` past the table nor a negative index
        wrapping onto a valid entry."""
        contexts = record_link_contexts(self.record(Language.THAI, link_cues=(0, cue)))
        with pytest.raises(CrawlLogError, match=f"source.example.*invalid link cue byte {cue}$"):
            ask(contexts, Language.THAI)


class TestRecordLinkContextsIsASequence:
    RECORD = PageRecord(
        url="http://source.example/",
        true_language=Language.OTHER,
        outlinks=("http://a.example/", "http://b.example/", "http://c.example/"),
        link_cues=(0, cue_byte(Language.THAI, anchor=True), cue_byte(Language.THAI, around=True)),
    )

    def test_len_index_slice_and_iteration_hand_out_contexts(self):
        contexts = record_link_contexts(self.RECORD)
        assert isinstance(contexts, RecordLinkContexts) and len(contexts) == 3
        for got in (list(contexts), list(contexts[:]), [contexts[i] for i in range(3)]):
            assert all(isinstance(context, CuedLinkContext) for context in got)
            assert [context.url for context in got] == list(self.RECORD.outlinks)
            assert [context.texts() for context in got] == [
                context[1:] for context in synthesize_link_contexts(self.RECORD)
            ]
        assert [context.url for context in contexts[1:]] == list(self.RECORD.outlinks[1:])
        assert contexts[-1].url == self.RECORD.outlinks[-1]
        with pytest.raises(IndexError):
            contexts[3]

    def test_an_empty_record_is_an_empty_row(self):
        contexts = record_link_contexts(PageRecord(url="http://leaf.example/"))
        assert len(contexts) == 0 and list(contexts) == []
        assert anchor_affinities(contexts, Language.THAI) == []


#: URL pairs per (source language, cue byte): every one is a fresh link
#: seed, so fresh word draws.
PAIRS = 200


class TestAroundFractionEqualsWalkingTheText:
    """``around_fraction`` makes the text's draws and sums word lengths;
    the quotient must be the very float the character walk returns —
    for every cue byte, not only those whose around text mixes scripts."""

    @pytest.mark.parametrize("source", list(Language))
    def test_every_cue_byte_and_target(self, source):
        checked = 0
        for cue in sorted(VALID_LINK_CUES):
            for pair in range(PAIRS):
                context = CuedLinkContext(
                    f"http://t{pair}.example/{cue}", f"http://s{pair}.example/", source, cue
                )
                around_text = context.around_text
                for target in Language:
                    expected = language_char_fraction(around_text, target)
                    assert context.around_fraction(target) == expected, (cue, pair, target)
                    known = context.cue_fractions(target)[1]
                    assert known is None or known == expected
                    checked += 1
        assert checked == len(VALID_LINK_CUES) * PAIRS * len(Language)

    def test_an_undecodable_byte_is_a_named_error(self):
        context = CuedLinkContext("http://t.example/", "http://s.example/", Language.THAI, 0x0E)
        with pytest.raises(CrawlLogError, match="invalid link cue byte 14"):
            context.around_fraction(Language.THAI)


PARENT = Candidate(url="http://parent.example/", distance=1)
IRRELEVANT = Judgment(relevant=False, language=Language.UNKNOWN, charset=None)

#: First-sighting priority of one link under each cue-reading strategy's
#: registered defaults, from the per-context helpers alone (irrelevant
#: parent at distance 1, so the cue term is all that varies).
EXPECTED_PRIORITY = {
    PDDHybridStrategy: lambda context: int(
        (0.6 * (0.5 * 0.0 + 0.5 * anchor_affinity(context, Language.THAI)) + 0.4 * min(1.0, 1 / 8))
        * 1000
    ),
    PalContentLinkStrategy: lambda context: int(
        (0.5 * 0.0 + 0.3 * anchor_affinity(context, Language.THAI) + 0.2 * (1.0 / (1.0 + 2))) * 1000
    ),
    InfoSpidersStrategy: lambda context: int(
        (
            0.7 * context_fractions(context, Language.THAI)[0]
            + 0.3 * context_fractions(context, Language.THAI)[1]
        )
        * 1000
    ),
}


@pytest.fixture(scope="module")
def cued_web():
    """The cued golden web, rendering bodies (cue mode) on request."""
    log = cued_golden_dataset().crawl_log
    return VirtualWebSpace(log, body_synthesizer=HtmlSynthesizer())


@pytest.fixture(scope="module")
def busy_pages(cued_web):
    """Pages with several links and more than one distinct cue byte."""
    pages = [
        record.url
        for record in cued_web.crawl_log
        if record.ok and record.is_html and len(set(record.link_cues or ())) > 1
    ]
    assert len(pages) > 100
    return pages[:150]


@pytest.mark.parametrize("strategy_class", list(EXPECTED_PRIORITY))
class TestEveryContextPathGivesTheHelpersPriorities:
    def priorities(self, strategy_class, outlinks, contexts):
        strategy = strategy_class()
        strategy.make_frontier()
        children = strategy.expand(PARENT, None, IRRELEVANT, outlinks, contexts)
        assert [child.url for child in children] == list(outlinks)
        return [child.priority for child in children]

    def test_page_row(self, strategy_class, cued_web, busy_pages):
        visitor = Visitor(cued_web)
        seen = set()
        for url in busy_pages:
            response = visitor.fetch(url)
            outlinks = visitor.extract(response)
            contexts = visitor.extract_contexts(response, outlinks)
            assert isinstance(contexts, RecordLinkContexts)
            expected = [EXPECTED_PRIORITY[strategy_class](context) for context in contexts]
            assert self.priorities(strategy_class, outlinks, contexts) == expected
            seen.update(expected)
        assert len(seen) > 2  # the cue term does vary on these pages

    def test_realigned_after_a_defense_filtered_and_reordered(
        self, strategy_class, cued_web, busy_pages
    ):
        visitor = Visitor(cued_web)
        foreign = "http://alias.example/?sid=1"
        for url in busy_pages:
            response = visitor.fetch(url)
            outlinks = (*reversed(response.outlinks[1:]), foreign)
            contexts = visitor.extract_contexts(response, outlinks)
            assert isinstance(contexts, tuple)
            assert tuple(context.url for context in contexts) == outlinks
            expected = [EXPECTED_PRIORITY[strategy_class](context) for context in contexts]
            assert self.priorities(strategy_class, outlinks, contexts) == expected
            by_url = {context.url: context for context in synthesize_link_contexts(response.record)}
            as_text = [by_url.get(url, LinkContext(url, "", "")) for url in outlinks]
            assert self.priorities(strategy_class, outlinks, as_text) == expected

    def test_body_mode(self, strategy_class, cued_web, busy_pages):
        visitor = Visitor(cued_web, extract_from_body=True)
        for url in busy_pages[:40]:
            response = visitor.fetch(url)
            outlinks = visitor.extract(response)
            contexts = visitor.extract_contexts(response, outlinks)
            assert outlinks and all(isinstance(context, LinkContext) for context in contexts)
            expected = [EXPECTED_PRIORITY[strategy_class](context) for context in contexts]
            assert self.priorities(strategy_class, outlinks, contexts) == expected

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_contexts_fail_by_name(self, strategy_class, extra):
        """Not an ``IndexError`` (too few) and not a silent truncation
        (too many)."""
        urls = ("http://a.example/", "http://b.example/")
        contexts = tuple(LinkContext(url, "", "") for url in (*urls, "http://c.example/")[: 2 + extra])
        strategy = strategy_class()
        strategy.make_frontier()
        message = rf"{strategy.name.split('(')[0]}.*{2 + extra} link contexts for 2 outlinks"
        with pytest.raises(SimulationError, match=message):
            strategy.expand(PARENT, None, IRRELEVANT, urls, contexts)
        row = record_link_contexts(
            PageRecord(url="http://source.example/", outlinks=(*urls, "http://c.example/"))
        )
        with pytest.raises(SimulationError, match="3 link contexts for 2 outlinks"):
            strategy.expand(PARENT, None, IRRELEVANT, urls, row)


def test_a_cued_crawl_writes_no_text(monkeypatch):
    """The whole point: on the ledger's ``mem-hybrid-cued`` kind of pass
    (pdd-hybrid over a cued in-memory web) no link is ever worded."""
    calls = []
    texts = CuedLinkContext.texts
    monkeypatch.setattr(
        CuedLinkContext, "texts", lambda self: calls.append(self.url) or texts(self)
    )
    rows = record_golden_trace(cued_golden_dataset(), PDDHybridStrategy())
    assert len(rows) > 1000 and calls == []
