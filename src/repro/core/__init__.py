"""The paper's contribution: language specific crawling on a simulator.

- :mod:`~repro.core.frontier` — URL queue implementations.
- :mod:`~repro.core.classifier` — relevance judgment (paper §3.2).
- :mod:`~repro.core.visitor` — crawler mechanics over the virtual web.
- :mod:`~repro.core.strategies` — priority-assignment strategies (§3.3).
- :mod:`~repro.core.engine` — the unified stage-pipeline crawl loop (§4).
- :mod:`~repro.core.session` — the crawl-session lifecycle over the engine.
- :mod:`~repro.core.metrics` — harvest rate / coverage / queue size (§3.4).
- :mod:`~repro.core.timing` — optional transfer-delay model (§6 future work).
"""

from repro.core.classifier import Classifier, ClassifierMode
from repro.core.distiller import Distiller
from repro.core.engine import (
    CheckpointHook,
    CrawlEngine,
    EngineHook,
    EngineStage,
    EngineStep,
    STAGE_ORDER,
)
from repro.core.frontier import (
    Candidate,
    FIFOFrontier,
    Frontier,
    PriorityFrontier,
    ReprioritizableFrontier,
)
from repro.core.metrics import CrawlSummary, MetricSeries
from repro.core.parallel import (
    ParallelConfig,
    ParallelResult,
    PartitionMode,
)
from repro.core.politeness import HostQueueFrontier, HostQueues
from repro.core.session import (
    CrawlRequest,
    CrawlResult,
    CrawlSession,
    SessionConfig,
    SessionStatus,
    report_payload,
)
from repro.core.spilling import SpillConfig, SpillingFrontier
from repro.core.summary import CrawlReport
from repro.core.strategies import (
    BacklinkCountStrategy,
    BreadthFirstStrategy,
    CrawlStrategy,
    DistilledSoftStrategy,
    LimitedDistanceStrategy,
    SimpleStrategy,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.core.timing import TimingModel
from repro.core.visitor import Visitor

__all__ = [
    "Frontier",
    "FIFOFrontier",
    "PriorityFrontier",
    "ReprioritizableFrontier",
    "HostQueueFrontier",
    "HostQueues",
    "SpillConfig",
    "SpillingFrontier",
    "Candidate",
    "Classifier",
    "ClassifierMode",
    "Visitor",
    "CrawlStrategy",
    "BreadthFirstStrategy",
    "SimpleStrategy",
    "LimitedDistanceStrategy",
    "DistilledSoftStrategy",
    "BacklinkCountStrategy",
    "Distiller",
    "ParallelConfig",
    "ParallelResult",
    "PartitionMode",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "CrawlEngine",
    "EngineHook",
    "EngineStage",
    "EngineStep",
    "CheckpointHook",
    "STAGE_ORDER",
    "CrawlResult",
    "CrawlRequest",
    "CrawlSession",
    "SessionConfig",
    "SessionStatus",
    "report_payload",
    "CrawlReport",
    "MetricSeries",
    "CrawlSummary",
    "TimingModel",
]
