"""The unified crawl-session API: one entry point for every workload.

``run_crawl`` is the documented public way to run a simulation.  A call
names **what** to crawl with a :class:`~repro.core.session.CrawlRequest`
and **how** to run it with a :class:`~repro.core.session.SessionConfig`
— the same two objects the serving layer (:mod:`repro.serve`) speaks
over the wire — and runs it as one
:class:`~repro.core.session.CrawlSession`.  A
:class:`~repro.core.parallel.ParallelConfig` (bare, or in the config's
``parallel`` field) partitions the crawl::

    from repro import CrawlRequest, run_crawl

    # from a built dataset
    result = run_crawl(CrawlRequest(dataset=dataset, strategy="soft-focused"))

    # partitioned over four host-hash crawlers
    from repro import ParallelConfig, PartitionMode
    result = run_crawl(
        CrawlRequest(dataset=dataset, strategy="breadth-first"),
        config=ParallelConfig(partitions=4, mode=PartitionMode.EXCHANGE),
    )

Both calls return an object satisfying the
:class:`~repro.core.summary.CrawlReport` protocol, so downstream report
code does not care whether the crawl was partitioned.
"""

from __future__ import annotations

from repro.core.parallel import ParallelConfig, ParallelResult
from repro.core.session import (
    CrawlRequest,
    CrawlResult,
    CrawlSession,
    SessionConfig,
)
from repro.errors import ConfigError

__all__ = ["run_crawl"]


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
        config: how to run it: a :class:`SessionConfig`, None for the
            defaults, or a bare :class:`ParallelConfig` standing for
            ``SessionConfig(parallel=...)``.

    Returns:
        A :class:`CrawlResult`, or a :class:`ParallelResult` for a
        partitioned crawl — either way a
        :class:`~repro.core.summary.CrawlReport`.

    Raises:
        ConfigError: on contradictory or incomplete session arguments.
    """
    if isinstance(config, ParallelConfig):
        config = SessionConfig(parallel=config)
    elif config is not None and not isinstance(config, SessionConfig):
        raise ConfigError(
            "config= must be a SessionConfig or ParallelConfig, "
            f"got {type(config).__name__}"
        )
    return CrawlSession(request, config).run()
