"""The link-cue byte, and scoring a record's links from it.

Record-mode context strategies get their two character fractions from
the cue byte in closed form (``CuedLinkContext.cue_fractions``) and read
synthesized text only for a link whose around text mixes two scripts.
That is only right while (a) every vocabulary word is wholly inside one
script and (b) the closed form agrees with scoring the text — so both
are pinned here, exactly, against the eager whole-record synthesis.
"""

import pytest

from repro.charset.languages import Language
from repro.core.strategies.textcues import (
    anchor_affinity,
    context_fractions,
    language_char_fraction,
)
from repro.errors import CrawlLogError
from repro.experiments.datasets import build_dataset
from repro.experiments.golden import GOLDEN_SCALE
from repro.experiments.tournament import DEFAULT_SEEDS, cued_thai_profile
from repro.graphgen.linkcontext import (
    _CUE_TABLE,
    CUE_LANGUAGES,
    cue_byte,
    cue_language,
    has_anchor_cue,
    has_around_cue,
    record_link_contexts,
    synthesize_link_contexts,
)
from repro.graphgen.textgen import FLAVORS, _flavor_tables, flavor_for
from repro.webspace.page import VALID_LINK_CUES, PageRecord

TARGETS = (Language.THAI, Language.JAPANESE, Language.KOREAN, Language.OTHER)

#: Share of links allowed to fall back to their text.  Measured 0-6.8 %
#: over these universes and targets; "always synthesize" is 100 %.
MAX_FALLBACK_SHARE = 0.15


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

    @pytest.mark.parametrize("flavor", FLAVORS_IN_USE)
    @pytest.mark.parametrize("language", list(Language))
    def test_every_word_scores_exactly_zero_or_one(self, flavor, language):
        expected = 1.0 if flavor_for(language) == flavor else 0.0
        vocabulary = _flavor_tables(flavor)[0]
        assert vocabulary
        for word in vocabulary:
            assert word and not any(char.isspace() for char in word), repr(word)
            assert language_char_fraction(word, language) == expected, repr(word)


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
