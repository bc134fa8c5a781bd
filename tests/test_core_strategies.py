"""Unit tests for the crawl strategies (paper §3.3, Tables 2 + Figure 1).

These run against hand-made judgments, not full simulations — the
simulator-level behaviour is covered in test_core_simulator and the
integration tests.
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, FIFOFrontier, PriorityFrontier
from repro.core.strategies import (
    BreadthFirstStrategy,
    LimitedDistanceStrategy,
    SimpleStrategy,
    get_strategy,
    hard_limited_strategy,
    soft_limited_strategy,
)
from repro.core.strategies.simple import HIGH_PRIORITY, LOW_PRIORITY
from repro.errors import ConfigError
from repro.webspace.virtualweb import FetchResponse

RELEVANT = Judgment(relevant=True, language=Language.THAI, charset="TIS-620")
IRRELEVANT = Judgment(relevant=False, language=Language.OTHER, charset="ISO-8859-1")

LINKS = ("http://x.example/1", "http://x.example/2")


def response(url: str = "http://parent.example/") -> FetchResponse:
    return FetchResponse(
        url=url, status=200, content_type="text/html", charset=None, outlinks=LINKS, size=100
    )


def parent(distance: int = 0) -> Candidate:
    return Candidate(url="http://parent.example/", distance=distance)


class TestBreadthFirst:
    def test_uses_fifo(self):
        assert isinstance(BreadthFirstStrategy().make_frontier(), FIFOFrontier)

    def test_expands_regardless_of_relevance(self):
        strategy = BreadthFirstStrategy()
        for judgment in (RELEVANT, IRRELEVANT):
            children = strategy.expand(parent(), response(), judgment, LINKS)
            assert [child.url for child in children] == list(LINKS)

    def test_children_carry_referrer(self):
        children = BreadthFirstStrategy().expand(parent(), response(), RELEVANT, LINKS)
        assert all(child.referrer == "http://parent.example/" for child in children)


class TestSimpleHard:
    """Table 2, hard-focused row."""

    def test_uses_fifo(self):
        assert isinstance(SimpleStrategy(mode="hard").make_frontier(), FIFOFrontier)

    def test_relevant_referrer_adds_links(self):
        children = SimpleStrategy(mode="hard").expand(parent(), response(), RELEVANT, LINKS)
        assert [child.url for child in children] == list(LINKS)

    def test_irrelevant_referrer_discards_links(self):
        assert SimpleStrategy(mode="hard").expand(parent(), response(), IRRELEVANT, LINKS) == []


class TestSimpleSoft:
    """Table 2, soft-focused row."""

    def test_uses_priority_queue(self):
        assert isinstance(SimpleStrategy(mode="soft").make_frontier(), PriorityFrontier)

    def test_relevant_referrer_high_priority(self):
        children = SimpleStrategy(mode="soft").expand(parent(), response(), RELEVANT, LINKS)
        assert all(child.priority == HIGH_PRIORITY for child in children)

    def test_irrelevant_referrer_low_priority(self):
        children = SimpleStrategy(mode="soft").expand(parent(), response(), IRRELEVANT, LINKS)
        assert len(children) == len(LINKS)  # nothing discarded
        assert all(child.priority == LOW_PRIORITY for child in children)

    def test_seeds_get_high_priority(self):
        seeds = SimpleStrategy(mode="soft").seed_candidates(["http://s.example/"])
        assert seeds[0].priority == HIGH_PRIORITY

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigError):
            SimpleStrategy(mode="medium")


class TestLimitedDistance:
    """Paper Figure 1 semantics."""

    def test_relevant_page_resets_distance(self):
        strategy = LimitedDistanceStrategy(n=2)
        children = strategy.expand(parent(distance=2), response(), RELEVANT, LINKS)
        assert all(child.distance == 0 for child in children)

    def test_irrelevant_page_increments_distance(self):
        strategy = LimitedDistanceStrategy(n=2)
        children = strategy.expand(parent(distance=0), response(), IRRELEVANT, LINKS)
        assert all(child.distance == 1 for child in children)

    def test_children_at_exact_budget_kept(self):
        strategy = LimitedDistanceStrategy(n=2)
        children = strategy.expand(parent(distance=1), response(), IRRELEVANT, LINKS)
        assert all(child.distance == 2 for child in children)

    def test_children_beyond_budget_discarded(self):
        strategy = LimitedDistanceStrategy(n=2)
        assert strategy.expand(parent(distance=2), response(), IRRELEVANT, LINKS) == []

    def test_n_zero_equals_hard_focused(self):
        strategy = LimitedDistanceStrategy(n=0)
        assert strategy.expand(parent(), response(), IRRELEVANT, LINKS) == []
        kept = strategy.expand(parent(), response(), RELEVANT, LINKS)
        assert len(kept) == len(LINKS)

    def test_non_prioritized_uses_fifo(self):
        assert isinstance(LimitedDistanceStrategy(n=2).make_frontier(), FIFOFrontier)

    def test_prioritized_uses_priority_queue(self):
        frontier = LimitedDistanceStrategy(n=2, prioritized=True).make_frontier()
        assert isinstance(frontier, PriorityFrontier)

    def test_prioritized_priority_decreases_with_distance(self):
        strategy = LimitedDistanceStrategy(n=3, prioritized=True)
        near = strategy.expand(parent(distance=0), response(), IRRELEVANT, LINKS)[0]
        far = strategy.expand(parent(distance=2), response(), IRRELEVANT, LINKS)[0]
        assert near.priority > far.priority
        assert near.priority == 3 - 1 and far.priority == 3 - 3

    def test_prioritized_relevant_children_get_top_band(self):
        strategy = LimitedDistanceStrategy(n=3, prioritized=True)
        children = strategy.expand(parent(distance=3), response(), RELEVANT, LINKS)
        assert all(child.priority == 3 for child in children)

    def test_non_prioritized_all_equal_priority(self):
        strategy = LimitedDistanceStrategy(n=3)
        near = strategy.expand(parent(distance=0), response(), IRRELEVANT, LINKS)[0]
        far = strategy.expand(parent(distance=2), response(), IRRELEVANT, LINKS)[0]
        assert near.priority == far.priority == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            LimitedDistanceStrategy(n=-1)

    def test_names_distinguish_modes(self):
        assert "non-prioritized" in LimitedDistanceStrategy(n=2).name
        assert "prioritized" in LimitedDistanceStrategy(n=2, prioritized=True).name


class TestCombined:
    def test_hard_limited_is_non_prioritized(self):
        strategy = hard_limited_strategy(3)
        assert not strategy.prioritized
        assert strategy.n == 3
        assert "hard+limited" in strategy.name

    def test_soft_limited_is_prioritized(self):
        strategy = soft_limited_strategy(2)
        assert strategy.prioritized
        assert "soft+limited" in strategy.name


class TestRegistry:
    def test_all_names_resolve(self):
        assert get_strategy("breadth-first").name == "breadth-first"
        assert get_strategy("hard-focused").mode == "hard"
        assert get_strategy("soft-focused").mode == "soft"
        assert get_strategy("limited-distance", n=4).n == 4

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            get_strategy("depth-first")
