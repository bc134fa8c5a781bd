"""Running strategies over datasets.

Thin orchestration over :func:`repro.api.run_crawl` so the figure
producers, benchmarks and examples all share one code path (and
therefore one definition of "a run").  ``run_strategy`` adds only what
is dataset-aware — the classifier of the dataset's language, a sample
interval scaled to the dataset, sweep-shared state — and takes
everything else as the :class:`~repro.core.session.SessionConfig` the
caller means.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

from repro.api import run_crawl
from repro.core.classifier import Classifier, ClassifierCache, ClassifierMode
from repro.core.session import CrawlRequest, CrawlResult, SessionConfig, needs_bodies
from repro.core.strategies.base import CrawlStrategy
from repro.core.strategies.registry import get_strategy
from repro.core.summary import CrawlReport
from repro.errors import ConfigError
from repro.experiments.datasets import Dataset
from repro.graphgen.htmlsynth import HtmlSynthesizer

#: A sweep strategy reference: an instance, a registry name, or a
#: ``(name, params)`` pair.
StrategyRef = CrawlStrategy | str | tuple[str, dict]


def run_strategy(
    dataset: Dataset,
    strategy: CrawlStrategy | str,
    config: SessionConfig | None = None,
    *,
    classifier_mode: ClassifierMode | str = ClassifierMode.CHARSET,
    web=None,
    classifier_cache: ClassifierCache | None = None,
) -> CrawlResult:
    """One strategy, one dataset, one result.

    ``strategy`` is an instance or a registered name
    (:func:`repro.core.strategies.get_strategy` resolves names).
    ``config`` is how the session runs, every field of it; a
    ``sample_interval`` left at the :class:`SessionConfig` default
    becomes ~200 samples over the dataset, so the series resolution
    scales with dataset size.

    ``web`` and ``classifier_cache`` exist so a sweep can share
    run-invariant state — a prebuilt virtual web space (with its
    body-synthesis cache warm) and the memoised classifier judgments.
    Each defaults to per-run construction.  The recall denominator needs
    no sharing: the page source memoises it.
    """
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    if config is None:
        config = SessionConfig()
    if config.sample_interval == SessionConfig.sample_interval:
        config = replace(config, sample_interval=max(1, len(dataset.crawl_log) // 200))
    if web is None:
        web = _dataset_web(dataset, classifier_mode, config)
    return run_crawl(
        CrawlRequest(
            strategy=strategy,
            web=web,
            classifier=Classifier(
                dataset.target_language, mode=classifier_mode, cache=classifier_cache
            ),
            seeds=tuple(dataset.seed_urls),
        ),
        config=config,
    )


def _dataset_web(dataset: Dataset, classifier_mode: ClassifierMode | str, config: SessionConfig):
    bodies = needs_bodies(ClassifierMode(classifier_mode), config.extract_from_body)
    return dataset.web(body_synthesizer=HtmlSynthesizer() if bodies else None)


def resolve_strategies(strategies: Iterable[StrategyRef]) -> list[CrawlStrategy]:
    """An instance per reference; a repeated label is a :class:`ConfigError`.

    Sweep results are keyed by ``strategy.name``, so two runs under one
    label would silently shadow each other — refuse before any crawl.
    """
    resolved = []
    for ref in strategies:
        if not isinstance(ref, CrawlStrategy):
            name, params = ref if isinstance(ref, tuple) else (ref, {})
            ref = get_strategy(name, **params)
        resolved.append(ref)
    names = [strategy.name for strategy in resolved]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"sweep strategy labels must be unique, repeated: {', '.join(repeated)}")
    return resolved


def run_strategies(
    dataset: Dataset,
    strategies: Iterable[StrategyRef],
    config: SessionConfig | None = None,
    *,
    classifier_mode: ClassifierMode | str = ClassifierMode.CHARSET,
) -> dict[str, CrawlResult]:
    """Run several strategies in this process, under identical conditions.

    The loop for what a :class:`~repro.exec.RunSpec` cannot carry —
    strategy instances, hooks and callbacks in ``config``; a grid of
    registry names belongs on :func:`repro.experiments.sweep.run_cells`,
    which also fans out to workers.  One ``config`` serves every run,
    and each run crawls exactly as it would alone: its clock and fault
    and adversary state are built per session.  Returns results keyed
    by strategy name, in input order (the figure renderers rely on it
    for stable legends).

    Sweep-invariant state is built once and shared by every run: the
    virtual web space (a replayed log never changes between strategies)
    and one :class:`~repro.core.classifier.ClassifierCache` — the same
    bytes are classified by every strategy in the sweep, so all runs
    after the first judge almost entirely from cache.
    """
    resolved = resolve_strategies(strategies)
    if config is None:
        config = SessionConfig()
    shared = {
        "classifier_mode": classifier_mode,
        "web": _dataset_web(dataset, classifier_mode, config),
        "classifier_cache": ClassifierCache(),
    }
    return {
        strategy.name: run_strategy(dataset, strategy, config, **shared)
        for strategy in resolved
    }


def summary_rows(results: dict[str, CrawlReport]) -> list[dict]:
    """Flatten results into report-friendly rows.

    Works on anything satisfying the
    :class:`~repro.core.summary.CrawlReport` protocol — sequential
    :class:`CrawlResult` and partitioned ``ParallelResult`` alike, with
    no isinstance dispatch: each result renders its own ``to_dict()``.
    """
    rows = []
    for name, result in results.items():
        row = {"strategy": name}
        for key, value in result.to_dict().items():
            row[key] = round(value, 4) if isinstance(value, float) else value
        rows.append(row)
    return rows
