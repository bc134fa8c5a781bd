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

The pre-session keyword surface (``run_crawl(web=..., strategy=...,
timing=..., ...)``) still works but is deprecated: it emits a
:class:`DeprecationWarning` and is folded into a request/config pair
internally, so both spellings produce identical reports.
"""

from __future__ import annotations

import warnings
from typing import Any

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
    SimulationConfig,
)
from repro.errors import ConfigError

__all__ = ["run_crawl"]

#: The legacy keywords that name the *workload* (CrawlRequest fields).
_REQUEST_KEYS = ("strategy", "web", "dataset", "classifier", "seeds", "relevant_urls")
#: The legacy keywords that name the *run shape* (SessionConfig fields).
_CONFIG_KEYS = (
    "timing",
    "on_fetch",
    "instrumentation",
    "faults",
    "resilience",
    "resume_from",
    "hooks",
    "record_fault_journal",
)


def _from_legacy_kwargs(
    config: SessionConfig | SimulationConfig | ParallelConfig | None,
    legacy: dict[str, Any],
) -> tuple[CrawlRequest, SessionConfig | SimulationConfig | ParallelConfig | None]:
    """Fold the deprecated loose-keyword surface into a request/config pair."""
    unknown = set(legacy) - set(_REQUEST_KEYS) - set(_CONFIG_KEYS)
    if unknown:
        raise TypeError(
            f"run_crawl() got unexpected keyword arguments: {sorted(unknown)}"
        )
    if "strategy" not in legacy:
        raise ConfigError("run_crawl needs a request= (or a legacy strategy= keyword)")
    warnings.warn(
        "passing run_crawl() loose keywords (web=, strategy=, timing=, ...) is "
        "deprecated; pass run_crawl(CrawlRequest(...), config=SessionConfig(...))",
        DeprecationWarning,
        stacklevel=3,
    )
    request = CrawlRequest(**{k: legacy[k] for k in _REQUEST_KEYS if k in legacy})
    extras = {k: legacy[k] for k in _CONFIG_KEYS if k in legacy}
    if "hooks" in extras:
        extras["hooks"] = tuple(extras["hooks"])
    if extras:
        if isinstance(config, SessionConfig):
            raise ConfigError(
                "pass run-shaping keywords inside the SessionConfig, "
                "not alongside one"
            )
        if isinstance(config, ParallelConfig):
            # Preserve the historical sequential-only diagnostics.
            if extras.get("timing") is not None or extras.get("on_fetch") is not None:
                raise ConfigError("timing= and on_fetch= are sequential-engine features")
            if extras.get("resume_from") is not None:
                raise ConfigError("resume_from= is a sequential-engine feature")
            if extras.get("hooks"):
                raise ConfigError("hooks= is a sequential-engine feature")
            return request, SessionConfig(
                parallel=config,
                instrumentation=extras.get("instrumentation"),
                faults=extras.get("faults"),
                resilience=extras.get("resilience"),
            )
        base = config or SimulationConfig()
        return request, SessionConfig.from_simulation(base, **extras)
    return request, config


def run_crawl(
    request: CrawlRequest | None = None,
    *,
    config: SessionConfig | SimulationConfig | ParallelConfig | None = None,
    **legacy: Any,
) -> CrawlResult | ParallelResult:
    """Run one crawl session; the single public entry point.

    Args:
        request: the workload — space (``web`` or ``dataset``),
            strategy, classifier, seeds, recall denominator — as a
            :class:`CrawlRequest`.
        config: how to run it.  A :class:`SessionConfig` (or a bare
            :class:`SimulationConfig`, upgraded internally, or None)
            runs the sequential engine; a :class:`ParallelConfig` — or a
            ``SessionConfig`` carrying one in its ``parallel`` field —
            runs the partitioned one.
        **legacy: the deprecated pre-session keyword surface
            (``web=``, ``strategy=``, ``timing=``, ``faults=``, ...).
            Emits :class:`DeprecationWarning` and produces a report
            identical to the equivalent request/config call.

    Returns:
        A :class:`CrawlResult` or :class:`ParallelResult` — either way a
        :class:`~repro.core.summary.CrawlReport`.

    Raises:
        ConfigError: on contradictory or incomplete session arguments.
    """
    if request is not None and legacy:
        raise ConfigError(
            "pass either a CrawlRequest or the legacy loose keywords, not both"
        )
    if request is None:
        request, config = _from_legacy_kwargs(config, legacy)
    if not isinstance(request, CrawlRequest):
        raise ConfigError(
            f"run_crawl needs a CrawlRequest, got {type(request).__name__}"
        )

    parallel: ParallelConfig | None = None
    session_config: SessionConfig
    if isinstance(config, ParallelConfig):
        parallel = config
        session_config = SessionConfig(parallel=config)
    elif isinstance(config, SimulationConfig):
        session_config = SessionConfig.from_simulation(config)
    elif config is None:
        session_config = SessionConfig()
    elif isinstance(config, SessionConfig):
        parallel = config.parallel
        session_config = config
    else:
        raise ConfigError(
            "config= must be a SessionConfig, SimulationConfig or ParallelConfig, "
            f"got {type(config).__name__}"
        )

    if parallel is not None:
        if session_config.timing is not None or session_config.on_fetch is not None:
            raise ConfigError("timing= and on_fetch= are sequential-engine features")
        if session_config.concurrency is not None:
            raise ConfigError(
                "concurrency= gives the sequential engine K fetch slots; it "
                "does not combine with a partitioned (parallel=) run"
            )
        if session_config.resume_from is not None:
            raise ConfigError("resume_from= is a sequential-engine feature")
        if session_config.hooks:
            raise ConfigError("hooks= is a sequential-engine feature")
        factory = request.strategy_factory()
        resolved = request.resolve()
        assert resolved.web is not None and resolved.classifier is not None
        return ParallelCrawlSimulator(
            web=resolved.web,
            strategy_factory=factory,
            classifier=resolved.classifier,
            seed_urls=list(resolved.seeds or ()),
            config=parallel,
            relevant_urls=resolved.relevant_urls,
            instrumentation=session_config.instrumentation,
            faults=session_config.faults,
            resilience=session_config.resilience,
        ).run()

    return CrawlSession(request, session_config).run()
