"""Simplified context focused crawler (paper §2.2; Diligenti et al. [4]).

The tunneling approach that *predates* the limited-distance strategy:
"The context focused crawler uses a best-first search heuristic.  The
classifiers learn the layers representing a set of pages that are at
some distance to the pages in the target class (layer 0) ... the next
URL to be visited by the crawler is chosen from the nearest nonempty
queue.  Although this approach clearly solves the problem of tunneling,
its major limitation is the requirement to construct a context graph
which, in turn, requires reverse links of the seed sets to exist at a
known search engine."

This implementation keeps that exact structure, simplified to the
charset-relevance world of this paper:

- **Context-graph construction** (offline, before the crawl): walk
  *backward* from the seed set for ``layers`` levels using a
  :class:`~repro.webspace.linkdb.LinkDB` — the stand-in for the search
  engine's reverse-link index the paper says is required.
- **Layer classifier**: the real CFC trains text classifiers per layer;
  with binary charset relevance there is no text to learn from, so we
  learn a *host-level* layer table (host → smallest layer any of its
  pages appeared in), which captures the same idea: "pages on hosts that
  tend to sit near the target class lead to the target class".
- **Crawling**: one queue per layer, always pop from the nearest
  non-empty one — implemented as a priority frontier with
  ``priority = layers - layer``.  Nothing is ever discarded (the CFC
  tunnels by ordering, not pruning), so coverage matches soft-focused.

The benchmark contrasts it with limited distance: similar focusing, but
only *with* the reverse-link oracle — precisely the trade the paper's
§2.2 critique describes.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence

from repro.core.classifier import Judgment
from repro.core.frontier import Candidate, Frontier, PriorityFrontier
from repro.core.strategies.base import CrawlStrategy
from repro.errors import ConfigError, UrlError
from repro.urlkit.extract import LinkContext
from repro.urlkit.normalize import url_host
from repro.webspace.linkdb import LinkDB
from repro.webspace.virtualweb import FetchResponse


def build_context_layers(
    linkdb: LinkDB, seed_urls: Sequence[str], layers: int
) -> dict[str, int]:
    """Backward-BFS layer assignment from the seed set.

    Layer 0 is the seeds themselves; layer i the pages that reach a
    seed in i forward hops (found by walking *backward* links — the
    reverse-link-index requirement).  Returns URL → smallest layer.
    """
    layer_of: dict[str, int] = {url: 0 for url in seed_urls}
    frontier = deque(seed_urls)
    while frontier:
        url = frontier.popleft()
        layer = layer_of[url]
        if layer >= layers:
            continue
        for source in linkdb.backward(url):
            if source not in layer_of:
                layer_of[source] = layer + 1
                frontier.append(source)
    return layer_of


def host_layer_table(layer_of: dict[str, int]) -> dict[str, int]:
    """Collapse URL layers to per-host minima (the trained 'classifier')."""
    table: dict[str, int] = {}
    for url, layer in layer_of.items():
        try:
            host = url_host(url)
        except UrlError:
            continue
        if layer < table.get(host, 1_000_000):
            table[host] = layer
    return table


class ContextGraphStrategy(CrawlStrategy):
    """Layered best-first crawling from a precomputed context graph."""

    sees_scheduled_links = False  # expand is a pure per-link map

    def __init__(
        self,
        linkdb: LinkDB,
        seed_urls: Sequence[str],
        layers: int = 3,
    ) -> None:
        if layers < 1:
            raise ConfigError("context graph needs at least one layer")
        self.layers = layers
        self.name = f"context-graph(layers={layers})"
        layer_of = build_context_layers(linkdb, seed_urls, layers)
        self._host_layer = host_layer_table(layer_of)
        #: URLs assigned to each layer during construction (diagnostics).
        self.context_sizes = {
            layer: sum(1 for value in layer_of.values() if value == layer)
            for layer in range(layers + 1)
        }

    def make_frontier(self) -> Frontier:
        return PriorityFrontier()

    def max_priority(self) -> int:
        return self.layers + 1

    def _layer_priority(self, url: str) -> int:
        """Priority of a URL: nearest layer pops first.

        Unknown hosts sit below every learned layer — the CFC's
        "other" class.
        """
        try:
            host = url_host(url)
        except UrlError:
            return 0
        layer = self._host_layer.get(host)
        if layer is None:
            return 0
        return self.layers + 1 - layer

    def expand(
        self,
        parent: Candidate,
        response: FetchResponse,
        judgment: Judgment,
        outlinks: Iterable[str],
        link_contexts: Sequence[LinkContext] | None = None,
    ) -> list[Candidate]:
        return [Candidate(url, self._layer_priority(url), referrer=parent.url) for url in outlinks]
