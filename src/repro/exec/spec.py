"""Picklable task specs and the worker-side run function.

A sweep fans *independent runs* out to worker processes; what crosses
the process boundary is never a live object graph (web spaces, caches
and strategies hold unpicklable or mutable state) but a **spec**: the
recipe to rebuild the run from scratch, deterministically.

Picklability rules — everything in a spec must be

- **frozen**: specs are dataclasses with ``frozen=True``; workers key
  their caches on them, so hashability matters;
- **constructive**: a registry *name* plus plain keyword parameters,
  not a strategy instance; a :class:`~repro.graphgen.config.DatasetProfile`
  plus capture parameters, not a built dataset; a
  :class:`~repro.core.session.SessionConfig` holding only values (a
  config is the *settings* of a run — its clock, fault counters and
  adversary state are built per session, so one config serves every
  run), never one naming a callback, a hook, telemetry or a file;
- **process-independent**: nothing derived from ``id()``, ``hash()``
  or iteration order of unsorted containers.  Partition ownership in
  particular goes through :func:`repro.webspace.query.host_bucket`
  (keyed FNV-1a), never Python's salted ``hash``.

Workers rebuild the expensive run-invariant state — the dataset, its
virtual web space, the recall denominator and a classifier cache —
once per process via :func:`_sweep_cache`, keyed by
:class:`DatasetSpec`: the per-process equivalent of
:func:`~repro.experiments.runner.run_strategies`' sweep-invariant
sharing.  A spec taken from a live dataset
(:meth:`DatasetSpec.from_dataset`) seeds that cache, so an in-process
sweep crawls the dataset its caller already holds.  Results come back
as ``to_dict()``-level payloads
(:func:`result_to_payload`) and are rehydrated driver-side
(:func:`result_from_payload`), so nothing engine-internal needs to
pickle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING, Any

from repro.core.metrics import CrawlSummary, MetricSeries
from repro.core.session import LIVE_FIELDS, CrawlResult, SessionConfig
from repro.errors import ConfigError
from repro.graphgen.config import DatasetProfile
from repro.webspace.query import host_bucket

if TYPE_CHECKING:
    from repro.core.parallel import ParallelResult
    from repro.experiments.datasets import Dataset

__all__ = [
    "DatasetSpec",
    "RunSpec",
    "execute_run",
    "result_to_payload",
    "result_from_payload",
]

#: The :class:`SessionConfig` fields a spec cannot carry into a worker:
#: the live ones, and the checkpoint cadence and file (a sweep cell
#: writes nothing to disk).
_REFUSED_FIELDS = LIVE_FIELDS + ("checkpoint_every", "checkpoint_path")


@dataclass(frozen=True, slots=True)
class DatasetSpec:
    """Recipe to rebuild a :class:`~repro.experiments.datasets.Dataset`.

    ``capture_kind="none"`` wraps the raw universe with no capture crawl
    (the ablations' comparison basis); the other kinds replay the
    dataset pipeline, reading the shared disk cache when ``use_cache``
    is set — a worker of a sweep whose driver already built the dataset
    then pays one cache read, not a rebuild.

    A ``store_path`` short-circuits everything: the worker memory-maps
    the columnar page store at that path
    (:func:`repro.experiments.datasets.open_dataset_store`) instead of
    generating anything — the out-of-core path, where N workers crawling
    a million-page web share one on-disk copy and pay no per-process
    materialisation.  The path string is the cache key, so it must be
    readable from every worker.
    """

    profile: DatasetProfile | None = None
    capture_kind: str = "none"
    capture_n: int = 0
    use_cache: bool = True
    store_path: str | None = None

    @classmethod
    def from_dataset(cls, dataset: "Dataset", use_cache: bool = True) -> "DatasetSpec":
        """The recipe of a live dataset; seeds this process's sweep cache
        with it (a cache fill, never state: :meth:`build` yields the same
        dataset, which is what a worker process crawls)."""
        spec = cls(
            profile=dataset.profile,
            capture_kind=dataset.capture_kind,
            capture_n=dataset.capture_n,
            use_cache=use_cache,
        )
        cached = _PROCESS_CACHE.get(spec)
        if cached is None or cached.dataset is not dataset:
            _PROCESS_CACHE[spec] = _SweepCache(dataset)
        return spec

    @classmethod
    def from_store(cls, path) -> "DatasetSpec":
        """A spec that opens the page store at ``path`` in each worker."""
        return cls(store_path=str(path))

    def build(self) -> "Dataset":
        # Local imports: repro.experiments modules import repro.exec at
        # module level (for SweepExecutor); the spec layer imports them
        # lazily to keep the dependency acyclic.
        if self.store_path is not None:
            from repro.experiments.datasets import open_dataset_store

            return open_dataset_store(self.store_path)
        if self.profile is None:
            raise ConfigError("DatasetSpec needs a profile= or a store_path=")
        if self.use_cache and self.capture_kind != "none":
            from repro.experiments.datasets import load_or_build_dataset

            return load_or_build_dataset(self.profile, self.capture_kind, self.capture_n)
        from repro.experiments.datasets import build_dataset

        return build_dataset(self.profile, self.capture_kind, self.capture_n)


@dataclass(frozen=True, slots=True)
class RunSpec:
    """One independent crawl run: what to crawl, and the config to run it.

    ``strategy`` is a registry name resolved through
    :func:`repro.core.strategies.get_strategy` in the worker; ``params``
    is its keyword arguments as a sorted tuple of pairs (tuples keep the
    spec hashable).  ``config`` is the run's
    :class:`~repro.core.session.SessionConfig`, as is: every value field
    (page cap, sampling, timing, faults, adversary, defenses, queue,
    partitions) crosses to the worker unchanged, and a field naming a
    live object is refused here, by name.  A ``sample_interval`` left at
    its default becomes ~200 samples over the dataset
    (:func:`~repro.experiments.runner.run_strategy`).

    ``config.parallel`` partitions the crawl;
    ``seed_owners`` then carries the driver's expected seed → partition
    assignment (:meth:`for_parallel` computes it with
    :func:`~repro.webspace.query.host_bucket`), which the worker
    re-derives and verifies — a cheap guard that driver and worker agree
    on partition ownership before any pages are fetched.
    """

    dataset: DatasetSpec
    strategy: str
    params: tuple[tuple[str, Any], ...] = ()
    classifier_mode: str = "charset"
    config: SessionConfig = SessionConfig()
    seed_owners: tuple[tuple[str, int], ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.config, SessionConfig):
            raise ConfigError(f"RunSpec.config must be a SessionConfig, got {self.config!r}")
        for spec in fields(SessionConfig):
            if spec.name in _REFUSED_FIELDS and getattr(self.config, spec.name) != spec.default:
                raise ConfigError(
                    f"a RunSpec cannot carry SessionConfig.{spec.name}=: it names a "
                    "process-local object or file; run it through run_strategies instead"
                )

    @classmethod
    def for_parallel(
        cls, dataset: "Dataset", strategy: str, config: SessionConfig, **kwargs: Any
    ) -> "RunSpec":
        """A partition-aware spec: seed ownership is pinned driver-side."""
        if config.parallel is None:
            raise ConfigError("RunSpec.for_parallel needs a config with parallel= set")
        partitions = config.parallel.partitions
        return cls(
            dataset=DatasetSpec.from_dataset(dataset),
            strategy=strategy,
            config=config,
            seed_owners=tuple(
                (url, host_bucket(url, partitions)) for url in dataset.seed_urls
            ),
            **kwargs,
        )


class _SweepCache:
    """Run-invariant state shared by every run of one dataset spec."""

    def __init__(self, dataset: "Dataset") -> None:
        from repro.core.classifier import ClassifierCache

        self.dataset = dataset
        self.classifier_cache = ClassifierCache()
        self._webs: dict[bool, Any] = {}

    def web(self, needs_bodies: bool):
        if needs_bodies not in self._webs:
            from repro.graphgen.htmlsynth import HtmlSynthesizer

            self._webs[needs_bodies] = self.dataset.web(
                body_synthesizer=HtmlSynthesizer() if needs_bodies else None
            )
        return self._webs[needs_bodies]


#: Per-process cache: each worker rebuilds a dataset's run-invariant
#: state once and reuses it for every spec that names the same dataset.
_PROCESS_CACHE: dict[DatasetSpec, _SweepCache] = {}


def _sweep_cache(spec: DatasetSpec) -> _SweepCache:
    cache = _PROCESS_CACHE.get(spec)
    if cache is None:
        cache = _SweepCache(spec.build())
        _PROCESS_CACHE[spec] = cache
    return cache


def result_to_payload(result: CrawlResult) -> dict:
    """Flatten a :class:`CrawlResult` to plain JSON-able dicts."""
    return {
        "kind": "crawl",
        "strategy": result.strategy,
        "series": result.series.to_dict(),
        "summary": asdict(result.summary),
        "wall_seconds": result.wall_seconds,
        "pages_crawled": result.pages_crawled,
        "frontier_peak": result.frontier_peak,
        "resilience": result.resilience,
        "adversary": result.adversary,
    }


def result_from_payload(payload: dict) -> "CrawlResult | ParallelResult":
    """Rehydrate a worker's payload into the result it flattened."""
    if payload.get("kind") == "parallel":
        from repro.core.parallel import ParallelResult, PartitionMode

        return ParallelResult(
            mode=PartitionMode(payload["mode"]),
            partitions=payload["partitions"],
            pages_crawled=payload["pages_crawled"],
            covered_relevant=payload["covered_relevant"],
            total_relevant=payload["total_relevant"],
            messages_exchanged=payload["messages_exchanged"],
            messages_accepted=payload["messages_accepted"],
            dropped_foreign_links=payload["dropped_foreign_links"],
            per_crawler_pages=tuple(payload["per_crawler_pages"]),
        )
    return CrawlResult(
        strategy=payload["strategy"],
        series=MetricSeries.from_dict(payload["series"]),
        summary=CrawlSummary(**payload["summary"]),
        wall_seconds=payload["wall_seconds"],
        pages_crawled=payload["pages_crawled"],
        frontier_peak=payload["frontier_peak"],
        resilience=payload["resilience"],
        adversary=payload.get("adversary"),
    )


def execute_run(spec: RunSpec) -> dict:
    """Worker entry point: rebuild, run, flatten.

    Module-level (and therefore picklable by reference) so
    :class:`~repro.exec.executor.SweepExecutor` can ship it to a
    :class:`~concurrent.futures.ProcessPoolExecutor` directly.
    """
    from repro.core.classifier import ClassifierMode
    from repro.core.session import needs_bodies
    from repro.core.strategies.registry import get_strategy
    from repro.experiments.runner import run_strategy

    ctx = _sweep_cache(spec.dataset)
    if spec.config.parallel is not None:
        return _execute_parallel(spec, ctx)
    mode = ClassifierMode(spec.classifier_mode)
    result = run_strategy(
        ctx.dataset,
        get_strategy(spec.strategy, **dict(spec.params)),
        spec.config,
        classifier_mode=mode,
        web=ctx.web(needs_bodies(mode, spec.config.extract_from_body)),
        classifier_cache=ctx.classifier_cache,
    )
    return result_to_payload(result)


def _execute_parallel(spec: RunSpec, ctx: _SweepCache) -> dict:
    from repro.api import run_crawl
    from repro.core.session import CrawlRequest
    from repro.core.strategies.registry import get_strategy

    assert spec.config.parallel is not None
    partitions = spec.config.parallel.partitions
    if spec.seed_owners is not None:
        # Re-derive the driver's partition plan; host_bucket is process-
        # independent, so any disagreement means the spec was built for
        # a different partition count (or a corrupted transfer) — fail
        # before fetching anything.
        derived = tuple(
            (url, host_bucket(url, partitions)) for url, _ in spec.seed_owners
        )
        if derived != spec.seed_owners:
            raise ConfigError(
                "seed partition ownership diverged between driver and worker: "
                f"expected {spec.seed_owners!r}, derived {derived!r}"
            )
    result = run_crawl(
        CrawlRequest(
            strategy=lambda: get_strategy(spec.strategy, **dict(spec.params)),
            web=ctx.web(False),
            classifier=_classifier_for(ctx.dataset, spec.classifier_mode),
            seeds=tuple(ctx.dataset.seed_urls),
        ),
        config=spec.config,
    )
    return {
        "kind": "parallel",
        "mode": result.mode.value,
        "partitions": result.partitions,
        "pages_crawled": result.pages_crawled,
        "covered_relevant": result.covered_relevant,
        "total_relevant": result.total_relevant,
        "messages_exchanged": result.messages_exchanged,
        "messages_accepted": result.messages_accepted,
        "dropped_foreign_links": result.dropped_foreign_links,
        "per_crawler_pages": list(result.per_crawler_pages),
    }


def _classifier_for(dataset: "Dataset", classifier_mode: str):
    from repro.core.classifier import Classifier

    return Classifier(dataset.target_language, mode=classifier_mode)
