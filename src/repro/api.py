"""The unified crawl-session API: one entry point for every workload.

``run_crawl`` is the documented public way to run a simulation.  A call
names **what** to crawl with a :class:`~repro.core.session.CrawlRequest`
and **how** to run it with a :class:`~repro.core.session.SessionConfig`
— the same two objects the serving layer (:mod:`repro.serve`) speaks
over the wire — and drives both engines: the sequential
:class:`~repro.core.session.CrawlSession` and the partitioned
:class:`~repro.core.parallel.ParallelCrawlSimulator`, selected by the
``config``::

    from repro import CrawlRequest, run_crawl

    # sequential, from a built dataset
    result = run_crawl(CrawlRequest(dataset=dataset, strategy="soft-focused"))

    # partitioned: a ParallelConfig selects the parallel engine
    from repro import ParallelConfig, PartitionMode
    result = run_crawl(
        CrawlRequest(dataset=dataset, strategy="breadth-first"),
        config=ParallelConfig(partitions=4, mode=PartitionMode.EXCHANGE),
    )

Both calls return an object satisfying the
:class:`~repro.core.summary.CrawlReport` protocol, so downstream report
code does not care which engine ran.
"""

from __future__ import annotations

from dataclasses import fields

from repro.core.parallel import (
    ParallelConfig,
    ParallelCrawlSimulator,
    ParallelResult,
)
from repro.core.session import (
    CrawlRequest,
    CrawlResult,
    CrawlSession,
    SessionConfig,
)
from repro.errors import ConfigError

__all__ = ["run_crawl"]

#: The :class:`SessionConfig` fields a partitioned run honours.  Every
#: other field off its default is rejected by name, so a field added
#: later is rejected until the partitioned engine is taught it.
_PARALLEL_FIELDS = frozenset({"parallel", "instrumentation", "faults", "resilience"})


def _reject_sequential_only(config: SessionConfig) -> None:
    """A partitioned run must not silently ignore part of its config."""
    for spec in fields(SessionConfig):
        if spec.name not in _PARALLEL_FIELDS and getattr(config, spec.name) != spec.default:
            raise ConfigError(
                f"{spec.name}= is a sequential-engine feature: it does not combine "
                "with a partitioned (parallel=) run"
            )


def run_crawl(
    request: CrawlRequest,
    *,
    config: SessionConfig | ParallelConfig | None = None,
) -> CrawlResult | ParallelResult:
    """Run one crawl session; the single public entry point.

    Args:
        request: the workload — space (``web`` or ``dataset``),
            strategy, classifier, seeds, recall denominator — as a
            :class:`CrawlRequest`.
        config: how to run it.  A :class:`SessionConfig` (or None) runs
            the sequential engine; a :class:`ParallelConfig` — or a
            ``SessionConfig`` carrying one in its ``parallel`` field —
            runs the partitioned one.

    Returns:
        A :class:`CrawlResult` or :class:`ParallelResult` — either way a
        :class:`~repro.core.summary.CrawlReport`.

    Raises:
        ConfigError: on contradictory or incomplete session arguments.
    """
    if not isinstance(request, CrawlRequest):
        raise ConfigError(
            f"run_crawl needs a CrawlRequest, got {type(request).__name__}"
        )
    if isinstance(config, ParallelConfig):
        config = SessionConfig(parallel=config)
    elif config is None:
        config = SessionConfig()
    elif not isinstance(config, SessionConfig):
        raise ConfigError(
            "config= must be a SessionConfig or ParallelConfig, "
            f"got {type(config).__name__}"
        )

    if config.parallel is not None:
        _reject_sequential_only(config)
        factory = request.strategy_factory()
        resolved = request.resolve()
        assert resolved.web is not None and resolved.classifier is not None
        return ParallelCrawlSimulator(
            web=resolved.web,
            strategy_factory=factory,
            classifier=resolved.classifier,
            seed_urls=list(resolved.seeds or ()),
            config=config.parallel,
            relevant_urls=resolved.relevant_urls,
            instrumentation=config.instrumentation,
            faults=config.faults,
            resilience=config.resilience,
        ).run()

    return CrawlSession(request, config).run()
