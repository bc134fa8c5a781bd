"""Series producers for the paper's figures.

Each ``figureN`` function reruns the corresponding experiment and
returns a :class:`FigureResult` holding the metric series per strategy
label — the same curves the paper plots — plus which metric each panel
shows.  Rendering to text is in :mod:`repro.experiments.report`; the
benchmarks assert the *shape* criteria from DESIGN.md against these
results.

Paper → producer map:

- Figure 3: simple strategy on Thai — harvest (a) and coverage (b).
- Figure 4: simple strategy on Japanese — harvest (a) and coverage (b).
- Figure 5: URL queue size of the simple strategy on Thai.
- Figure 6: non-prioritized limited distance, N = 1..4 — queue (a),
  harvest (b), coverage (c).
- Figure 7: prioritized limited distance, N = 1..4 — same panels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.metrics import MetricSeries
from repro.core.session import CrawlResult
from repro.exec import DatasetSpec
from repro.experiments.datasets import Dataset
from repro.experiments.runner import resolve_strategies
from repro.experiments.sweep import run_cells, strategy_spec

#: The N sweep of Figures 6 and 7.
LIMITED_DISTANCE_NS = (1, 2, 3, 4)


@dataclass(slots=True)
class FigureResult:
    """Everything needed to render / assert one paper figure."""

    figure: str
    title: str
    dataset: str
    panels: tuple[str, ...]  # metric names: harvest_rate / coverage / queue_size
    results: dict[str, CrawlResult] = field(default_factory=dict)

    def series(self) -> dict[str, MetricSeries]:
        return {label: result.series for label, result in self.results.items()}

    def to_dict(self) -> dict:
        return {
            "figure": self.figure,
            "title": self.title,
            "dataset": self.dataset,
            "panels": list(self.panels),
            "series": {label: series.to_dict() for label, series in self.series().items()},
        }


def _runs(
    dataset: Dataset, strategies: list[tuple[str, dict]], workers: int
) -> dict[str, CrawlResult]:
    """One :class:`~repro.exec.RunSpec` per strategy, keyed by its label."""
    labels = [strategy.name for strategy in resolve_strategies(strategies)]
    dataset_spec = DatasetSpec.from_dataset(dataset)
    runs = run_cells(strategies, lambda *ref: strategy_spec(dataset_spec, ref), workers)
    return {label: result for label, (_, result) in zip(labels, runs)}


_SIMPLE = [("breadth-first", {}), ("hard-focused", {}), ("soft-focused", {})]


def figure3(dataset: Dataset, workers: int = 0) -> FigureResult:
    """Simple strategy on the Thai dataset (harvest + coverage)."""
    return FigureResult(
        figure="3",
        title="Simulation results of the Simple Strategy on Thai dataset",
        dataset=dataset.name,
        panels=("harvest_rate", "coverage"),
        results=_runs(dataset, _SIMPLE, workers),
    )


def figure4(dataset: Dataset, workers: int = 0) -> FigureResult:
    """Simple strategy on the Japanese dataset (harvest + coverage)."""
    return FigureResult(
        figure="4",
        title="Simulation results of the Simple Strategy on Japanese dataset",
        dataset=dataset.name,
        panels=("harvest_rate", "coverage"),
        results=_runs(dataset, _SIMPLE, workers),
    )


def figure5(dataset: Dataset, workers: int = 0) -> FigureResult:
    """URL queue size while running the simple strategy (Thai dataset).

    The paper plots hard- and soft-focused; we keep both and the
    breadth-first reference it mentions in the text.
    """
    return FigureResult(
        figure="5",
        title="Size of URL Queue while running the Simple Strategy",
        dataset=dataset.name,
        panels=("queue_size",),
        results=_runs(dataset, _SIMPLE, workers),
    )


def _limited_distance(prioritized: bool, ns: tuple[int, ...]) -> list[tuple[str, dict]]:
    return [("limited-distance", {"n": n, "prioritized": prioritized}) for n in ns]


def figure6(
    dataset: Dataset, ns: tuple[int, ...] = LIMITED_DISTANCE_NS, workers: int = 0
) -> FigureResult:
    """Non-prioritized limited distance, N sweep (queue/harvest/coverage)."""
    return FigureResult(
        figure="6",
        title="Non-Prioritized Limited Distance Strategy",
        dataset=dataset.name,
        panels=("queue_size", "harvest_rate", "coverage"),
        results=_runs(dataset, _limited_distance(False, ns), workers),
    )


def figure7(
    dataset: Dataset, ns: tuple[int, ...] = LIMITED_DISTANCE_NS, workers: int = 0
) -> FigureResult:
    """Prioritized limited distance, N sweep (queue/harvest/coverage)."""
    return FigureResult(
        figure="7",
        title="Prioritized Limited Distance Strategy",
        dataset=dataset.name,
        panels=("queue_size", "harvest_rate", "coverage"),
        results=_runs(dataset, _limited_distance(True, ns), workers),
    )
