"""Shared benchmark fixtures.

Benchmarks run the paper's experiments at ``REPRO_LSWC_SCALE`` (default
0.25 → ~35k-URL Thai universe, ~27k Japanese).  Datasets are built once
per session and cached on disk under ``benchmarks/.cache/`` (or under
``REPRO_LSWC_CACHE`` when it is set), so re-running the suite only pays
the simulation cost, not generation.

Every benchmark writes its rendered tables/series under
``benchmarks/results/`` so the paper-shaped output survives the run —
both human-readable (``<name>.txt``) and machine-readable
(``BENCH_<name>.json``) for CI trend tracking.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.experiments.datasets import load_or_build_dataset
from repro.graphgen.profiles import japanese_profile, thai_profile

BENCH_SCALE = float(os.environ.get("REPRO_LSWC_SCALE", "0.25"))

RESULTS_DIR = Path(__file__).parent / "results"

#: Where the bench datasets are cached: inside the checkout, unless
#: ``REPRO_LSWC_CACHE`` names another place.
CACHE_DIR = "default" if os.environ.get("REPRO_LSWC_CACHE") else Path(__file__).parent / ".cache"


@pytest.fixture(scope="session")
def thai_bench():
    """The Thai dataset at benchmark scale (cached)."""
    return load_or_build_dataset(thai_profile().scaled(BENCH_SCALE), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def japanese_bench():
    """The Japanese dataset at benchmark scale (cached)."""
    return load_or_build_dataset(japanese_profile().scaled(BENCH_SCALE), cache_dir=CACHE_DIR)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def canonical_hash(results: dict) -> str:
    """sha256 over a sweep's deterministic content (wall time excluded).

    The executor's contract — ``workers=N`` is byte-identical to serial —
    is assertable as digest equality; every bench that fans a sweep out
    pins it with this one definition of "the results".
    """
    canonical = json.dumps(
        {
            name: {
                "series": result.series.to_dict(),
                "summary": dataclasses.asdict(result.summary),
                "resilience": result.resilience,
            }
            for name, result in results.items()
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def emit(results_dir: Path, name: str, text: str, data: dict | list | None = None) -> None:
    """Print a rendered report and persist it under benchmarks/results/.

    Writes ``<name>.txt`` (the rendered report) and a machine-readable
    ``BENCH_<name>.json`` companion: ``data`` when the caller provides
    structured results, otherwise the text wrapped in a one-key dict so
    every benchmark run leaves a parseable artifact either way.
    """
    print()
    print(text)
    (results_dir / f"{name}.txt").write_text(text)
    payload = {
        "name": name,
        "scale": BENCH_SCALE,
        "data": data if data is not None else {"text": text},
    }
    (results_dir / f"BENCH_{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
