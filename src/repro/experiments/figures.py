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
from repro.experiments.datasets import Dataset
from repro.experiments.runner import run_strategies

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


def _simple_strategy_runs(dataset: Dataset, **kwargs) -> dict[str, CrawlResult]:
    return run_strategies(
        dataset, ["breadth-first", "hard-focused", "soft-focused"], **kwargs
    )


def figure3(dataset: Dataset, **kwargs) -> FigureResult:
    """Simple strategy on the Thai dataset (harvest + coverage)."""
    return FigureResult(
        figure="3",
        title="Simulation results of the Simple Strategy on Thai dataset",
        dataset=dataset.name,
        panels=("harvest_rate", "coverage"),
        results=_simple_strategy_runs(dataset, **kwargs),
    )


def figure4(dataset: Dataset, **kwargs) -> FigureResult:
    """Simple strategy on the Japanese dataset (harvest + coverage)."""
    return FigureResult(
        figure="4",
        title="Simulation results of the Simple Strategy on Japanese dataset",
        dataset=dataset.name,
        panels=("harvest_rate", "coverage"),
        results=_simple_strategy_runs(dataset, **kwargs),
    )


def figure5(dataset: Dataset, **kwargs) -> FigureResult:
    """URL queue size while running the simple strategy (Thai dataset).

    The paper plots hard- and soft-focused; we keep both and the
    breadth-first reference it mentions in the text.
    """
    return FigureResult(
        figure="5",
        title="Size of URL Queue while running the Simple Strategy",
        dataset=dataset.name,
        panels=("queue_size",),
        results=_simple_strategy_runs(dataset, **kwargs),
    )


def _limited_distance_runs(
    dataset: Dataset, prioritized: bool, ns: tuple[int, ...], **kwargs
) -> dict[str, CrawlResult]:
    # (name, params) pairs rather than instances, so a caller-supplied
    # workers= can ship the sweep to worker processes.
    strategies = [("limited-distance", {"n": n, "prioritized": prioritized}) for n in ns]
    return run_strategies(dataset, strategies, **kwargs)


def figure6(
    dataset: Dataset, ns: tuple[int, ...] = LIMITED_DISTANCE_NS, **kwargs
) -> FigureResult:
    """Non-prioritized limited distance, N sweep (queue/harvest/coverage)."""
    return FigureResult(
        figure="6",
        title="Non-Prioritized Limited Distance Strategy",
        dataset=dataset.name,
        panels=("queue_size", "harvest_rate", "coverage"),
        results=_limited_distance_runs(dataset, prioritized=False, ns=ns, **kwargs),
    )


def figure7(
    dataset: Dataset, ns: tuple[int, ...] = LIMITED_DISTANCE_NS, **kwargs
) -> FigureResult:
    """Prioritized limited distance, N sweep (queue/harvest/coverage)."""
    return FigureResult(
        figure="7",
        title="Prioritized Limited Distance Strategy",
        dataset=dataset.name,
        panels=("queue_size", "harvest_rate", "coverage"),
        results=_limited_distance_runs(dataset, prioritized=True, ns=ns, **kwargs),
    )
