"""Content+link hybrid orderings (related-work family, PAPERS.md).

Two strategies the paper is usually compared against, expressed over the
link-context hand-off:

- :class:`PDDHybridStrategy` (``pdd-hybrid``) — PDD-crawler-style
  weighted combination of *link structure* (observed backlink count,
  saturating) and *content relevance* (parent judgment + anchor-text
  language affinity).  Both halves keep improving while a URL is queued,
  so it runs over :class:`~repro.core.frontier.ReprioritizableFrontier`
  and re-ranks in place.

- :class:`PalContentLinkStrategy` (``pal-content-link``) — Pal et al.'s
  content-and-link-structure priority: parent relevance, anchor cue and
  a link-structure *distance* term (how far the path has wandered from
  the last relevant page), with no global backlink table.

Both are stateless across runs: every table is rebuilt in
``make_frontier``.  Both accept ``link_contexts=None`` (the base-class
compatibility rule) and degrade to context-blind behaviour — the anchor
term is simply 0.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, Frontier, ReprioritizableFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.core.strategies.textcues import anchor_affinities, link_scores, resolve_language
from repro.errors import ConfigError
from repro.urlkit.extract import LinkContext
from repro.webspace.virtualweb import FetchResponse

#: Float scores are mapped to integer frontier priorities at this scale.
SCORE_SCALE = 1000

#: Backlink count at which the link-structure term saturates.
_BACKLINK_SATURATION = 8


class PDDHybridStrategy(CrawlStrategy):
    """Weighted link-structure + content relevance ordering."""

    name = "pdd-hybrid"
    wants_link_contexts = True
    resumable = False

    def __init__(
        self,
        language: Language | str = Language.THAI,
        content_weight: float = 0.6,
        link_weight: float = 0.4,
    ) -> None:
        if content_weight < 0 or link_weight < 0 or content_weight + link_weight <= 0:
            raise ConfigError("pdd-hybrid weights must be non-negative and not both 0")
        self.language = resolve_language(language)
        self.content_weight = content_weight
        self.link_weight = link_weight
        self.name = f"pdd-hybrid({self.language.value})"
        self._frontier: ReprioritizableFrontier | None = None
        self._backlinks: dict[str, int] = {}
        self._content: dict[str, float] = {}

    def make_frontier(self) -> Frontier:
        # Per-run reset point: a reused instance must not inherit the
        # backlink/content tables of a previous run.
        self._backlinks = {}
        self._content = {}
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
        anchor_terms = link_scores(self, outlinks, link_contexts, anchor_affinities, 0.0)
        half_parent_term = 0.5 * (1.0 if judgment.relevant else 0.0)
        content_weight, link_weight = self.content_weight, self.link_weight
        contents, backlinks = self._content, self._backlinks
        update_priority = self._frontier.update_priority if self._frontier is not None else None
        referrer = parent.url
        children: list[Candidate] = []
        for url, anchor_term in zip(outlinks, anchor_terms, strict=True):
            content = half_parent_term + 0.5 * anchor_term
            best = contents.get(url, 0.0)
            if best > content:
                content = best
            contents[url] = content
            backlinks[url] = count = backlinks.get(url, 0) + 1
            link_term = count / _BACKLINK_SATURATION if count < _BACKLINK_SATURATION else 1.0
            score = content_weight * content + link_weight * link_term
            priority = int(score * SCORE_SCALE)
            if update_priority is not None and update_priority(url, priority):
                continue
            children.append(Candidate(url, priority, 0, referrer))
        return children


class PalContentLinkStrategy(CrawlStrategy):
    """Content and link-structure priority per Pal et al."""

    name = "pal-content-link"
    wants_link_contexts = True

    def __init__(
        self,
        language: Language | str = Language.THAI,
        content_weight: float = 0.5,
        anchor_weight: float = 0.3,
        distance_weight: float = 0.2,
    ) -> None:
        for field_name, value in (
            ("content_weight", content_weight),
            ("anchor_weight", anchor_weight),
            ("distance_weight", distance_weight),
        ):
            if value < 0:
                raise ConfigError(f"pal-content-link {field_name} must be >= 0")
        self.language = resolve_language(language)
        self.content_weight = content_weight
        self.anchor_weight = anchor_weight
        self.distance_weight = distance_weight
        self.name = f"pal-content-link({self.language.value})"
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
        # Candidate.distance carries hops-since-last-relevant-page, the
        # same path bookkeeping the limited-distance family uses — here
        # it decays the link-structure term instead of pruning.
        child_distance = 0 if judgment.relevant else parent.distance + 1
        parent_term = 1.0 if judgment.relevant else 0.0
        distance_term = 1.0 / (1.0 + child_distance)
        outlinks = tuple(outlinks)
        anchor_terms = link_scores(self, outlinks, link_contexts, anchor_affinities, 0.0)
        content_weight, anchor_weight = self.content_weight, self.anchor_weight
        distance_weight = self.distance_weight
        frontier = self._frontier
        children: list[Candidate] = []
        for url, anchor_term in zip(outlinks, anchor_terms, strict=True):
            score = (
                content_weight * parent_term
                + anchor_weight * anchor_term
                + distance_weight * distance_term
            )
            priority = int(score * SCORE_SCALE)
            if frontier is not None:
                current = frontier.priority_of(url)
                if current is not None:
                    # Queued already: keep the best score seen on any path.
                    if priority > current:
                        frontier.update_priority(url, priority)
                    continue
            children.append(
                Candidate(
                    url=url,
                    priority=priority,
                    distance=child_distance,
                    referrer=parent.url,
                )
            )
        return children
