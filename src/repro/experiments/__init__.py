"""Evaluation harness (paper §5).

- :mod:`~repro.experiments.datasets` — build (and cache) the Thai and
  Japanese datasets: generate a universe, then *capture* it by crawling
  from seeds the way the authors did.
- :mod:`~repro.experiments.runner` — run strategies over datasets.
- :mod:`~repro.experiments.sweep` — the one sweep path every grid
  experiment runs on (cells → ``RunSpec`` → executor → digest) and the
  shared tail of their ``python -m`` entry points.
- :mod:`~repro.experiments.figures` — series producers for Figures 3-7.
- :mod:`~repro.experiments.tables` — Tables 1-3.
- :mod:`~repro.experiments.report` — plain-text rendering.
- :mod:`~repro.experiments.ablations` — locality / classifier / scale
  sweeps beyond the paper.
- :mod:`~repro.experiments.faultsweep` — harvest/coverage degradation
  versus fault rate under the resilient fetch pipeline.
"""

import importlib

from repro.experiments.datasets import Dataset, build_dataset, load_or_build_dataset
from repro.experiments.export import export_figure_gnuplot, export_figure_json
from repro.experiments.figures import (
    FigureResult,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)
from repro.experiments.robustness import seed_sweep, sweep_summary
from repro.experiments.runner import run_strategies, run_strategy
from repro.experiments.tables import table1, table2, table3

__all__ = [
    "Dataset",
    "build_dataset",
    "load_or_build_dataset",
    "run_strategy",
    "run_strategies",
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "table1",
    "table2",
    "table3",
    "export_figure_json",
    "export_figure_gnuplot",
    "reproduce_all",
    "seed_sweep",
    "sweep_summary",
    "FaultSweepPoint",
    "fault_sweep",
]

#: Imported on first use: these modules are ``python -m`` entry points,
#: and runpy warns when one it runs was already imported by the package.
_LAZY = {"FaultSweepPoint": "faultsweep", "fault_sweep": "faultsweep", "reproduce_all": "reproduce"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
