"""Deterministic multiprocess sweep execution.

The paper's evidence base is sweeps — strategy sweeps, fault-rate
grids, seed robustness runs, ablations — and every point of a sweep is
an independent simulation.  This package scales them out:

- :class:`~repro.exec.executor.SweepExecutor` — serial in-process
  backend by default (``workers=0``), a
  :class:`~concurrent.futures.ProcessPoolExecutor` fan-out for
  ``workers >= 1``; results always merge in submission order, so
  parallel output is byte-identical to serial.
- :class:`~repro.exec.spec.RunSpec` / :class:`~repro.exec.spec.DatasetSpec`
  — the picklable task recipes workers rebuild runs from, with a
  per-process cache of the run-invariant state.

Every grid experiment reaches this package through
:func:`repro.experiments.sweep.run_cells` (cells → ``RunSpec`` →
executor), at every worker count; the seed-robustness and ablation
sweeps, whose rows are whole universes rather than runs, use
:meth:`SweepExecutor.map` directly.  CLIs expose the knob as
``--workers N``.
"""

from repro.exec.executor import SweepExecutor
from repro.exec.spec import (
    DatasetSpec,
    RunSpec,
    execute_run,
    result_from_payload,
    result_to_payload,
)

__all__ = [
    "SweepExecutor",
    "DatasetSpec",
    "RunSpec",
    "execute_run",
    "result_from_payload",
    "result_to_payload",
]
