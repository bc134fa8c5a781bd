"""The context-aware strategy family and its textual-cue scoring.

Ordering claims are unit-level: ``expand`` is called directly with
hand-built :class:`~repro.urlkit.extract.LinkContext` tuples, so each
test pins one scoring rule without a generated web in the loop.  The
end-to-end path (engine → visitor → synthesized contexts) is covered by
the tournament sweep tests and the golden differentials.

Also pins two regressions that rode along with this family:

- :class:`BacklinkCountStrategy` reused across runs leaked its backlink
  table from the previous crawl (``make_frontier`` now resets it);
- ``hard+limited`` / ``soft+limited`` are registered with an ``n=``
  parameter instead of being importable-only helpers.
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, ReprioritizableFrontier
from repro.core.strategies import (
    BacklinkCountStrategy,
    InfoSpidersStrategy,
    PalContentLinkStrategy,
    PDDHybridStrategy,
    get_strategy,
)
from repro.core.strategies.limited_distance import LimitedDistanceStrategy
from repro.core.strategies.textcues import language_char_fraction, resolve_language
from repro.errors import ConfigError
from repro.urlkit.extract import LinkContext

from conftest import SEED

THAI_TEXT = "ภาษาไทย"  # "Thai language" in Thai
RELEVANT = Judgment(relevant=True, language=Language.THAI, charset="TIS-620")
IRRELEVANT = Judgment(relevant=False, language=Language.UNKNOWN, charset=None)

PARENT = Candidate(url="http://parent.example/")


def contexts_for(urls, anchors):
    return tuple(
        LinkContext(url=url, anchor_text=anchor, around_text="")
        for url, anchor in zip(urls, anchors)
    )


class TestLanguageCharFraction:
    def test_pure_thai_is_one(self):
        assert language_char_fraction(THAI_TEXT, Language.THAI) == 1.0

    def test_latin_text_is_zero_for_thai(self):
        assert language_char_fraction("hello world", Language.THAI) == 0.0

    def test_mixed_text_is_fractional(self):
        mixed = THAI_TEXT[:4] + "abcd"
        assert language_char_fraction(mixed, Language.THAI) == pytest.approx(0.5)

    def test_whitespace_does_not_dilute(self):
        spaced = " ".join(THAI_TEXT)
        assert language_char_fraction(spaced, Language.THAI) == 1.0

    def test_empty_text_is_zero(self):
        assert language_char_fraction("", Language.THAI) == 0.0

    def test_japanese_blocks(self):
        assert language_char_fraction("あア日", Language.JAPANESE) == 1.0
        assert language_char_fraction(THAI_TEXT, Language.JAPANESE) == 0.0

    def test_korean_blocks(self):
        assert language_char_fraction("한글", Language.KOREAN) == 1.0

    def test_other_counts_ascii_letters(self):
        assert language_char_fraction("abc", Language.OTHER) == 1.0
        assert language_char_fraction(THAI_TEXT, Language.OTHER) == 0.0

    def test_resolve_language_accepts_string(self):
        assert resolve_language("thai") is Language.THAI
        assert resolve_language(Language.KOREAN) is Language.KOREAN

    def test_resolve_language_rejects_unknown(self):
        with pytest.raises(ConfigError, match="unknown language"):
            resolve_language("klingon")


class TestPDDHybrid:
    def test_registry(self):
        strategy = get_strategy("pdd-hybrid", language="thai", content_weight=0.7)
        assert isinstance(strategy, PDDHybridStrategy)
        assert strategy.language is Language.THAI
        assert strategy.content_weight == 0.7

    def test_uses_reprioritizable_frontier(self):
        assert isinstance(PDDHybridStrategy().make_frontier(), ReprioritizableFrontier)

    def test_wants_link_contexts(self):
        assert PDDHybridStrategy().wants_link_contexts is True

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            PDDHybridStrategy(content_weight=-1)
        with pytest.raises(ConfigError):
            PDDHybridStrategy(content_weight=0, link_weight=0)

    def test_thai_anchor_outranks_cueless_link(self):
        strategy = PDDHybridStrategy()
        strategy.make_frontier()
        urls = ("http://cued.example/", "http://plain.example/")
        children = strategy.expand(
            PARENT, None, IRRELEVANT, urls, contexts_for(urls, (THAI_TEXT, "click here"))
        )
        priorities = {child.url: child.priority for child in children}
        assert priorities["http://cued.example/"] > priorities["http://plain.example/"]

    def test_none_contexts_fall_back_to_parent_judgment(self):
        strategy = PDDHybridStrategy()
        strategy.make_frontier()
        (from_relevant,) = strategy.expand(PARENT, None, RELEVANT, ("http://a.example/",), None)
        (from_irrelevant,) = strategy.expand(PARENT, None, IRRELEVANT, ("http://b.example/",), None)
        assert from_relevant.priority > from_irrelevant.priority

    def test_resighting_raises_queued_priority(self):
        strategy = PDDHybridStrategy()
        frontier = strategy.make_frontier()
        url = "http://popular.example/"
        (child,) = strategy.expand(PARENT, None, IRRELEVANT, (url,), None)
        frontier.push(child)
        first = frontier.priority_of(url)
        # Second sighting from a *relevant* parent: both halves improve,
        # and no duplicate candidate comes back.
        assert strategy.expand(PARENT, None, RELEVANT, (url,), None) == []
        assert frontier.priority_of(url) > first

    def test_make_frontier_resets_run_state(self):
        strategy = PDDHybridStrategy()
        strategy.make_frontier()
        strategy.expand(PARENT, None, RELEVANT, ("http://a.example/",), None)
        assert strategy._backlinks and strategy._content
        strategy.make_frontier()
        assert strategy._backlinks == {} and strategy._content == {}


class TestPalContentLink:
    def test_registry(self):
        assert isinstance(get_strategy("pal-content-link"), PalContentLinkStrategy)

    def test_uses_reprioritizable_frontier(self):
        assert isinstance(PalContentLinkStrategy().make_frontier(), ReprioritizableFrontier)

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigError):
            PalContentLinkStrategy(anchor_weight=-0.1)

    def test_relevant_parent_resets_distance(self):
        strategy = PalContentLinkStrategy()
        strategy.make_frontier()
        parent = Candidate(url="http://p.example/", distance=2)
        (child,) = strategy.expand(parent, None, RELEVANT, ("http://a.example/",), None)
        assert child.distance == 0

    def test_irrelevant_parent_extends_distance(self):
        strategy = PalContentLinkStrategy()
        strategy.make_frontier()
        parent = Candidate(url="http://p.example/", distance=2)
        (child,) = strategy.expand(parent, None, IRRELEVANT, ("http://a.example/",), None)
        assert child.distance == 3

    def test_anchor_cue_outranks_plain_link(self):
        strategy = PalContentLinkStrategy()
        strategy.make_frontier()
        urls = ("http://cued.example/", "http://plain.example/")
        children = strategy.expand(
            PARENT, None, IRRELEVANT, urls, contexts_for(urls, (THAI_TEXT, "news"))
        )
        priorities = {child.url: child.priority for child in children}
        assert priorities["http://cued.example/"] > priorities["http://plain.example/"]

    def test_resighting_keeps_best_score(self):
        strategy = PalContentLinkStrategy()
        frontier = strategy.make_frontier()
        url = "http://twice.example/"
        (child,) = strategy.expand(PARENT, None, IRRELEVANT, (url,), None)
        frontier.push(child)
        weak = frontier.priority_of(url)
        assert strategy.expand(
            PARENT, None, RELEVANT, (url,), contexts_for((url,), (THAI_TEXT,))
        ) == []
        assert frontier.priority_of(url) > weak


class TestInfoSpiders:
    def test_registry(self):
        assert isinstance(get_strategy("infospiders"), InfoSpidersStrategy)

    def test_wants_link_contexts(self):
        assert InfoSpidersStrategy().wants_link_contexts is True

    def test_rejects_zero_weights(self):
        with pytest.raises(ConfigError):
            InfoSpidersStrategy(anchor_weight=0, around_weight=0)

    def test_anchor_cue_dominates_ordering(self):
        strategy = InfoSpidersStrategy()
        strategy.make_frontier()
        urls = ("http://cued.example/", "http://plain.example/")
        children = strategy.expand(
            PARENT, None, IRRELEVANT, urls, contexts_for(urls, (THAI_TEXT, "archive"))
        )
        priorities = {child.url: child.priority for child in children}
        assert priorities["http://cued.example/"] > priorities["http://plain.example/"]
        assert priorities["http://plain.example/"] == 0

    def test_around_text_scores_below_anchor(self):
        contexts = (LinkContext("http://a.example/", THAI_TEXT, ""), LinkContext("http://b.example/", "", THAI_TEXT))
        urls = tuple(context.url for context in contexts)
        anchor_only, around_only = InfoSpidersStrategy().expand(PARENT, None, IRRELEVANT, urls, contexts)
        assert anchor_only.priority > around_only.priority > 0

    def test_none_contexts_degrade_to_fifo_priorities(self):
        strategy = InfoSpidersStrategy()
        strategy.make_frontier()
        children = strategy.expand(
            PARENT, None, RELEVANT, ("http://a.example/", "http://b.example/"), None
        )
        assert [child.priority for child in children] == [0, 0]

    def test_resighting_keeps_strongest_cue(self):
        strategy = InfoSpidersStrategy()
        frontier = strategy.make_frontier()
        url = "http://seen.example/"
        (child,) = strategy.expand(
            PARENT, None, IRRELEVANT, (url,), contexts_for((url,), ("plain",))
        )
        frontier.push(child)
        assert strategy.expand(
            PARENT, None, IRRELEVANT, (url,), contexts_for((url,), (THAI_TEXT,))
        ) == []
        assert frontier.priority_of(url) > 0


class TestCombinedRegistration:
    def test_hard_limited_registered_with_n(self):
        strategy = get_strategy("hard+limited", n=1)
        assert isinstance(strategy, LimitedDistanceStrategy)
        assert strategy.name == "hard+limited(N=1)"
        assert strategy.n == 1 and strategy.prioritized is False

    def test_soft_limited_registered_with_n(self):
        strategy = get_strategy("soft+limited", n=2)
        assert strategy.name == "soft+limited(N=2)"
        assert strategy.n == 2 and strategy.prioritized is True

    def test_defaults_match_paper_capture_setting(self):
        assert get_strategy("hard+limited").n == 3
        assert get_strategy("soft+limited").n == 3


class TestBacklinkReuseRegression:
    def test_two_runs_of_one_instance_are_identical(self, tiny_web):
        """A reused instance must not inherit the previous crawl's
        backlink table: the second run's fetch order has to match the
        first exactly."""
        from repro.core.classifier import Classifier
        from repro.core.session import CrawlRequest, CrawlSession, SessionConfig

        strategy = BacklinkCountStrategy()
        orders = []
        for _ in range(2):
            urls = []
            CrawlSession(
                CrawlRequest(
                    strategy=strategy,
                    web=tiny_web,
                    classifier=Classifier(Language.THAI),
                    seeds=(SEED,),
                ),
                SessionConfig(
                    sample_interval=1, on_fetch=lambda event: urls.append(event.url)
                ),
            ).run()
            orders.append(urls)
        assert orders[0] == orders[1]

    def test_make_frontier_clears_backlink_table(self):
        strategy = BacklinkCountStrategy()
        strategy.make_frontier()
        strategy.expand(PARENT, None, IRRELEVANT, ("http://a.example/",))
        assert strategy._backlinks
        strategy.make_frontier()
        assert not strategy._backlinks
