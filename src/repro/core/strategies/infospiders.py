"""InfoSpiders-style textual-cue ordering (Menczer et al., PAPERS.md).

"Navigating the Small World Web by Textual Cues": the agent judges each
link *before* following it, purely from the text in and around the
anchor.  This adaptation keeps that idea in the charset-relevance world
of the paper — the cue detector is the Unicode-block character fraction
of :mod:`~repro.core.strategies.textcues`, anchor text weighted above
surrounding text — and runs best-first over a
:class:`~repro.core.frontier.ReprioritizableFrontier` so a URL whose cue
improves on a later sighting moves up in place.

Unlike the hybrid family this ordering uses *no* link-structure signal
and no parent judgment: a link from an irrelevant page with a
target-language anchor outranks a cue-less link from a relevant page,
which is exactly the tunnelling behaviour textual cues buy.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, Frontier, ReprioritizableFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.core.strategies.hybrid import SCORE_SCALE
from repro.core.strategies.textcues import link_fractions, link_scores, resolve_language
from repro.errors import ConfigError
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse


class InfoSpidersStrategy(CrawlStrategy):
    """Score links by anchor/around textual cues, best cue first."""

    name = "infospiders"
    wants_link_contexts = True

    def __init__(
        self,
        language: Language | str = Language.THAI,
        anchor_weight: float = 0.7,
        around_weight: float = 0.3,
    ) -> None:
        if anchor_weight < 0 or around_weight < 0 or anchor_weight + around_weight <= 0:
            raise ConfigError("infospiders weights must be non-negative and not both 0")
        self.language = resolve_language(language)
        self.anchor_weight = anchor_weight
        self.around_weight = around_weight
        self.name = f"infospiders({self.language.value})"
        self._frontier: ReprioritizableFrontier | None = None

    def make_frontier(self) -> Frontier:
        self._frontier = ReprioritizableFrontier()
        return self._frontier

    def max_priority(self) -> int:
        return SCORE_SCALE

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> list[Candidate]:
        outlinks = tuple(outlinks)
        # Context-blind, every link scores 0.
        fractions = link_scores(self, outlinks, link_contexts, link_fractions, (0.0, 0.0))
        anchor_weight, around_weight = self.anchor_weight, self.around_weight
        frontier = self._frontier
        children: list[Candidate] = []
        for url, (anchor, around) in zip(outlinks, fractions, strict=True):
            priority = int((anchor_weight * anchor + around_weight * around) * SCORE_SCALE)
            if frontier is not None:
                current = frontier.priority_of(url)
                if current is not None:
                    # Re-sighted while queued: keep the strongest cue.
                    if priority > current:
                        frontier.update_priority(url, priority)
                    continue
            children.append(Candidate(url=url, priority=priority, referrer=parent.url))
        return children
