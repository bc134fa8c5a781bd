"""repro — reproduction of "Simulation Study of Language Specific Web
Crawling" (Somboonviwat, Tamura, Kitsuregawa; DEWS/ICDE 2005).

The package implements the paper's full stack from scratch:

- a composite charset detector and META parsing for language
  identification (:mod:`repro.charset`),
- a trace-driven web crawling simulator (:mod:`repro.core`,
  :mod:`repro.webspace`),
- the crawl strategies under study — breadth-first, hard/soft-focused,
  and (non-)prioritized limited-distance (:mod:`repro.core.strategies`),
- a synthetic web-space generator replacing the unavailable 2004 crawl
  logs (:mod:`repro.graphgen`),
- and the experiment harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart::

    from repro import CrawlRequest, build_dataset, run_crawl, thai_profile

    dataset = build_dataset(thai_profile().scaled(0.1))
    result = run_crawl(CrawlRequest(dataset=dataset, strategy="soft-focused"))
    print(result.coverage, result.summary.max_queue_size)

``run_crawl`` is the session API: a :class:`CrawlRequest` names the
workload, a :class:`SessionConfig` shapes the run — a partitioned
crawl included — and the pair is one :class:`CrawlSession`
(:mod:`repro.api`), with optional telemetry from :mod:`repro.obs`.
Long-lived, budget-stepped crawls use :class:`CrawlSession` directly or
the session server in :mod:`repro.serve`.
"""

from repro.adversary import (
    AdversarialWebSpace,
    AdversaryModel,
    AdversaryProfile,
    DefenseConfig,
)
from repro.api import run_crawl
from repro.charset import (
    CompositeCharsetDetector,
    DetectionResult,
    Language,
    detect_charset,
    language_of_charset,
    parse_meta_charset,
)
from repro.core import (
    BreadthFirstStrategy,
    Classifier,
    ClassifierMode,
    CrawlEngine,
    CrawlReport,
    CrawlRequest,
    CrawlResult,
    CrawlSession,
    EngineHook,
    EngineStage,
    LimitedDistanceStrategy,
    ParallelConfig,
    ParallelResult,
    PartitionMode,
    SessionConfig,
    SessionStatus,
    SimpleStrategy,
    TimingModel,
    report_payload,
    available_strategies,
    get_strategy,
    register_strategy,
)
from repro.exec import DatasetSpec, RunSpec, SweepExecutor
from repro.experiments import (
    Dataset,
    build_dataset,
    load_or_build_dataset,
    run_strategies,
    run_strategy,
)
from repro.faults import (
    BreakerPolicy,
    FaultModel,
    FaultProfile,
    HostOutage,
    ResilienceConfig,
    RetryPolicy,
)
from repro.graphgen import (
    DatasetProfile,
    HtmlSynthesizer,
    generate_universe,
    japanese_profile,
    profile_by_name,
    thai_profile,
)
from repro.obs import (
    EventBus,
    Instrumentation,
    JsonlTraceWriter,
    MetricsRegistry,
    SpanEvent,
    read_trace,
)
from repro.webspace import CrawlLog, LinkDB, PageRecord, VirtualWebSpace

__version__ = "1.0.0"

__all__ = [
    # charset
    "Language",
    "detect_charset",
    "DetectionResult",
    "CompositeCharsetDetector",
    "parse_meta_charset",
    "language_of_charset",
    # webspace
    "PageRecord",
    "CrawlLog",
    "LinkDB",
    "VirtualWebSpace",
    # graphgen
    "DatasetProfile",
    "thai_profile",
    "japanese_profile",
    "profile_by_name",
    "generate_universe",
    "HtmlSynthesizer",
    # session API
    "run_crawl",
    "CrawlRequest",
    "CrawlSession",
    "SessionConfig",
    "SessionStatus",
    "report_payload",
    # core
    "CrawlResult",
    "CrawlReport",
    "ParallelConfig",
    "ParallelResult",
    "PartitionMode",
    "Classifier",
    "ClassifierMode",
    "TimingModel",
    "BreadthFirstStrategy",
    "SimpleStrategy",
    "LimitedDistanceStrategy",
    "register_strategy",
    "get_strategy",
    "available_strategies",
    "CrawlEngine",
    "EngineHook",
    "EngineStage",
    # adversary + defenses
    "AdversaryProfile",
    "AdversaryModel",
    "AdversarialWebSpace",
    "DefenseConfig",
    # faults + resilience
    "FaultProfile",
    "FaultModel",
    "HostOutage",
    "RetryPolicy",
    "BreakerPolicy",
    "ResilienceConfig",
    # observability
    "Instrumentation",
    "MetricsRegistry",
    "EventBus",
    "SpanEvent",
    "JsonlTraceWriter",
    "read_trace",
    # sweep executor
    "SweepExecutor",
    "DatasetSpec",
    "RunSpec",
    # experiments
    "Dataset",
    "build_dataset",
    "load_or_build_dataset",
    "run_strategy",
    "run_strategies",
    "__version__",
]
