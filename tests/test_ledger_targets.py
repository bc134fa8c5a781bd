"""Every function the perf ledger's tracer patches still exists.

``benchmarks/ledger/tracer.py`` addresses what it wraps by dotted name
and skips, with a warning nobody is forced to read, any name a refactor
has moved: the layer's metrics then read 0 and the next perf PR starts
from a per-layer story that is wrong.  This resolves every target the
way ``Tracer.install`` does, so a rename fails tier-1 instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "tracer.py"

#: Already dead when this test was written (ROADMAP item 2(a) drops them
#: from the tracer); nothing may be added here.
KNOWN_DEAD = {
    "repro.core.visitor:synthesize_link_contexts",
    "repro.core.sched:VirtualTimeEngine.run",
}


def _targets() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("ledger_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(module_name, path) for module_name, path, _span in module.TARGETS]


def _resolves(module_name: str, path: str) -> bool:
    try:
        owner = importlib.import_module(module_name)
        for attribute in path.split("."):
            owner = getattr(owner, attribute)
    except (ImportError, AttributeError):
        return False
    return callable(owner)


@pytest.mark.parametrize("module_name, path", _targets())
def test_trace_target_resolves(module_name, path):
    name = f"{module_name}:{path}"
    if name in KNOWN_DEAD:
        assert not _resolves(module_name, path), f"{name} is back: drop it from KNOWN_DEAD"
    else:
        assert _resolves(module_name, path), (
            f"{name} no longer exists, so the ledger would report its layer as 0; "
            "keep the name or move the target in benchmarks/ledger/tracer.py"
        )

