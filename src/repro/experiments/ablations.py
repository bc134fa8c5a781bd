"""Ablations beyond the paper's figures.

Three studies the paper motivates but does not run:

- **A1 locality sweep** — the entire approach rests on "language
  locality in the Web" (§3).  Sweeping the generator's locality knob
  shows how strategy separation collapses as locality fades.
- **A2 classifier choice** — META-declared charsets versus the byte
  detector versus ground truth quantifies the §3.2 discussion about
  mislabeled pages.
- **A3 scale sweep** — shape stability of the headline results across
  dataset sizes, justifying the scaled-down reproduction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.classifier import ClassifierMode
from repro.exec import DatasetSpec, RunSpec, SweepExecutor
from repro.experiments.datasets import Dataset, build_dataset
from repro.experiments.runner import run_strategy
from repro.experiments.sweep import run_cells
from repro.graphgen.config import DatasetProfile

DEFAULT_LOCALITIES = (0.5, 0.65, 0.8, 0.9, 0.95)
DEFAULT_SCALES = (0.25, 0.5, 1.0)


@dataclass(frozen=True, slots=True)
class AblationRow:
    """One measured configuration of an ablation sweep."""

    label: str
    early_harvest_hard: float
    early_harvest_bfs: float
    coverage_hard: float
    max_queue_soft: int

    def to_dict(self) -> dict:
        return {
            "config": self.label,
            "early_harvest_hard": round(self.early_harvest_hard, 3),
            "early_harvest_bfs": round(self.early_harvest_bfs, 3),
            "coverage_hard": round(self.coverage_hard, 3),
            "max_queue_soft": self.max_queue_soft,
        }


def _measure(dataset: Dataset, label: str) -> AblationRow:
    early_at = max(1, len(dataset.crawl_log) // 5)
    hard = run_strategy(dataset, "hard-focused")
    soft = run_strategy(dataset, "soft-focused")
    bfs = run_strategy(dataset, "breadth-first")
    return AblationRow(
        label=label,
        early_harvest_hard=hard.series.harvest_at(early_at),
        early_harvest_bfs=bfs.series.harvest_at(early_at),
        coverage_hard=hard.final_coverage,
        max_queue_soft=soft.summary.max_queue_size,
    )


def _measure_locality(base_profile: DatasetProfile, locality: float) -> AblationRow:
    """One locality row; module-level so a worker process can run it."""
    dataset = build_dataset(base_profile.with_locality(locality), "none")
    return _measure(dataset, label=f"locality={locality:g}")


def _measure_scale(base_profile: DatasetProfile, scale: float) -> AblationRow:
    """One scale row; module-level so a worker process can run it."""
    dataset = build_dataset(base_profile.scaled(scale))
    return _measure(dataset, label=f"scale={scale:g}")


def locality_sweep(
    base_profile: DatasetProfile,
    localities: tuple[float, ...] = DEFAULT_LOCALITIES,
    workers: int = 0,
) -> list[AblationRow]:
    """A1: how language locality drives focused-crawling gains.

    Runs on raw universes (identical page mix across localities), so a
    change in focused-vs-breadth-first separation is attributable to the
    link structure alone.  Each row is an independent universe, so
    ``workers > 0`` fans rows out over a
    :class:`~repro.exec.SweepExecutor` process pool.
    """
    return SweepExecutor(workers).map(
        functools.partial(_measure_locality, base_profile), localities
    )


_CLASSIFIER_SWEEP_MODES = (
    ClassifierMode.CHARSET,
    ClassifierMode.META,
    ClassifierMode.DETECTOR,
    ClassifierMode.ORACLE,
)


def classifier_sweep(dataset: Dataset, workers: int = 0) -> list[dict]:
    """A2: harvest/coverage of hard-focused under each classifier mode.

    Harvest is judged by the classifier under test while coverage is
    measured against the charset-based reference set, so the rows
    directly expose classifier disagreement.
    """
    spec = DatasetSpec.from_dataset(dataset)
    runs = run_cells(
        [(mode,) for mode in _CLASSIFIER_SWEEP_MODES],
        lambda mode: RunSpec(dataset=spec, strategy="hard-focused", classifier_mode=mode.value),
        workers,
    )
    return [
        {
            "classifier": mode.value,
            "pages_crawled": result.pages_crawled,
            "final_harvest_rate": round(result.final_harvest_rate, 3),
            "coverage_of_charset_set": round(result.final_coverage, 3),
        }
        for (mode,), result in runs
    ]


def scale_sweep(
    base_profile: DatasetProfile,
    scales: tuple[float, ...] = DEFAULT_SCALES,
    workers: int = 0,
) -> list[AblationRow]:
    """A3: shape stability across dataset sizes.

    ``workers > 0`` builds and measures each scale in its own worker
    process.
    """
    return SweepExecutor(workers).map(
        functools.partial(_measure_scale, base_profile), scales
    )
