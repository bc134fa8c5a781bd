"""Priority-assignment strategies (paper §3.3).

Every strategy is a :class:`~repro.core.strategies.base.CrawlStrategy`:
it chooses the frontier discipline, stamps seed candidates, and decides —
per crawled page — which extracted URLs enter the queue and at what
priority.  The names used by the CLI, benchmarks and experiment configs
resolve through the shared :mod:`~repro.core.strategies.registry`
(:func:`get_strategy` / :func:`register_strategy`); the paper's
strategies are registered here.
"""

from repro.core.strategies.backlink import BacklinkCountStrategy
from repro.core.strategies.base import CrawlStrategy
from repro.core.strategies.breadth_first import BreadthFirstStrategy
from repro.core.strategies.combined import hard_limited_strategy, soft_limited_strategy
from repro.core.strategies.context_graph import ContextGraphStrategy
from repro.core.strategies.distilled import DistilledSoftStrategy
from repro.core.strategies.hybrid import PalContentLinkStrategy, PDDHybridStrategy
from repro.core.strategies.infospiders import InfoSpidersStrategy
from repro.core.strategies.limited_distance import LimitedDistanceStrategy
from repro.core.strategies.registry import (
    available_strategies,
    get_strategy,
    iter_strategy_names,
    register_strategy,
)
from repro.core.strategies.simple import SimpleStrategy

__all__ = [
    "CrawlStrategy",
    "BreadthFirstStrategy",
    "SimpleStrategy",
    "LimitedDistanceStrategy",
    "DistilledSoftStrategy",
    "BacklinkCountStrategy",
    "ContextGraphStrategy",
    "PDDHybridStrategy",
    "PalContentLinkStrategy",
    "InfoSpidersStrategy",
    "hard_limited_strategy",
    "soft_limited_strategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "iter_strategy_names",
]

register_strategy(
    "breadth-first",
    BreadthFirstStrategy,
    description="FIFO baseline: crawl in discovery order (paper §3.3.1)",
)
register_strategy(
    "soft-focused",
    description="follow every link, relevant parents first (paper §3.3.2)",
)(lambda **params: SimpleStrategy(mode="soft", **params))
register_strategy(
    "hard-focused",
    description="follow links from relevant pages only (paper §3.3.2)",
)(lambda **params: SimpleStrategy(mode="hard", **params))
register_strategy(
    "limited-distance",
    LimitedDistanceStrategy,
    description="tunnel up to n irrelevant hops (params: n, prioritized; paper §3.3.3)",
)
register_strategy(
    "distilled-soft",
    DistilledSoftStrategy,
    description="soft-focused with topic-distillation hub boosts",
)
register_strategy(
    "backlink-count",
    BacklinkCountStrategy,
    description="prioritise by observed in-link count",
)
register_strategy(
    "pdd-hybrid",
    PDDHybridStrategy,
    description="weighted link-structure + content relevance (params: language, content_weight, link_weight)",
)
register_strategy(
    "pal-content-link",
    PalContentLinkStrategy,
    description="content and link-structure priority per Pal et al. (params: language, weights)",
)
register_strategy(
    "infospiders",
    InfoSpidersStrategy,
    description="anchor/around textual-cue scoring (params: language, anchor_weight, around_weight)",
)
register_strategy(
    "hard+limited",
    hard_limited_strategy,
    description="hard-focused capture with n-hop tunnelling (params: n; paper §4)",
)
register_strategy(
    "soft+limited",
    soft_limited_strategy,
    description="soft-focused capture with n-hop tunnelling (params: n; paper §4)",
)
