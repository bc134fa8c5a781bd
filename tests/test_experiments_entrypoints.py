"""The ``python -m repro.experiments.<module>`` entry points start clean.

runpy warns when the module it is about to run was already imported by
its package's ``__init__``; the package re-exports those names lazily.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

ENTRY_POINTS = (
    "adversweep", "concurrency", "faultsweep", "reproduce", "scalefrontier", "tournament",
)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_help_runs_with_runtime_warnings_as_errors(module):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (str(SRC), os.environ.get("PYTHONPATH")) if part
    ))
    process = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", f"repro.experiments.{module}",
         "--help"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert process.returncode == 0, process.stderr
    assert "RuntimeWarning" not in process.stderr


def test_the_lazy_names_still_import_from_the_package():
    from repro.experiments import FaultSweepPoint, fault_sweep, reproduce_all
    from repro.experiments.faultsweep import FaultSweepPoint as point, fault_sweep as sweep
    from repro.experiments.reproduce import reproduce_all as reproduce

    assert (FaultSweepPoint, fault_sweep, reproduce_all) == (point, sweep, reproduce)


def test_an_unknown_name_is_still_an_attribute_error():
    import repro.experiments

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.experiments.nope  # noqa: B018
