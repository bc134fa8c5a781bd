"""Golden crawl traces: the differential gate on engine optimisation.

The simulator is only allowed to get *faster*, never *different*: every
strategy's value rests on its exact, reproducible fetch ordering (the
paper's figures are functions of that order, and the limited-distance
semantics are defined path-by-path).  This module records the complete
observable behaviour of a crawl — the fetch order and each page's
relevance verdict — on a small, fixed web, and serialises it as JSONL.

The checked-in fixtures under ``tests/golden/fixtures/`` are the golden
reference; ``tests/golden/test_golden_traces.py`` replays every strategy
against them on each test run, so any hot-path change that perturbs
orderings — a heap tiebreak regression, a cache returning a stale
judgment, an interning bug collapsing two URLs — fails tier-1 with the
first divergent step named.

The webs the traces crawl are checked in too, as page stores under
``tests/golden/fixtures/stores/`` (``thai-golden.v2.lswc`` and its cued
twin ``thai-cued-golden.v2.lswc``, each written once by
:func:`~repro.experiments.datasets.build_dataset_store`).  So the goldens
pin the engine alone: a generator change moves the pinned build digests
of ``tests/test_store_build.py``, not the goldens.

Regenerate the trace fixtures (only when an ordering change is
*intended* and reviewed) with::

    python -m repro.experiments.reproduce --regen-golden

Fixture format: line 1 is a JSON header (format name/version, profile,
scale, strategy, page cap, and the concurrency of a concurrent crawl);
each further line is one fetch, ``{"step": n, "url": ..., "relevant": ...}``,
in fetch order.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable

from repro.core.session import SessionConfig
from repro.core.strategies import CrawlStrategy, get_strategy
from repro.errors import ReproError
from repro.experiments.datasets import Dataset, read_dataset
from repro.experiments.runner import run_strategy

_FORMAT_NAME = "repro-lswc-golden-trace"
_FORMAT_VERSION = 1

#: Scale of the golden universe — small enough that seven checked-in
#: traces stay reviewable, big enough that every priority band and
#: tunneling depth is exercised.
GOLDEN_SCALE = 0.02

#: Fetches recorded per strategy.  A cap (rather than frontier
#: exhaustion) keeps fixtures compact, but it must be deep enough that
#: every pair of pinned strategies has visibly diverged — on the golden
#: web the last pair (limited-distance N=2 prioritized vs soft-focused)
#: separates at step 1007, so anything shorter would leave part of the
#: matrix pinning duplicate traces.
GOLDEN_MAX_PAGES = 1100

#: Default fixture directory, resolved from the repository layout
#: (``src/repro/experiments/golden.py`` → repo root → ``tests/golden``).
GOLDEN_FIXTURE_DIR = Path(__file__).resolve().parents[3] / "tests" / "golden" / "fixtures"

#: The checked-in golden webs (see the module docstring).
_STORE_DIR = GOLDEN_FIXTURE_DIR / "stores"

#: Event-driven (virtual-time) fixtures live in a subdirectory: the
#: round-based suite's orphan check globs ``fixtures/*.jsonl``
#: non-recursively, so sched fixtures stay out of its matrix.
SCHED_FIXTURE_DIR = GOLDEN_FIXTURE_DIR / "sched"

#: The cue-reading orderings are pinned on the cued twin of the golden
#: web (same graph, plus the ``link_cues`` column they score from), in a
#: subdirectory for the same reason as the sched fixture.
CUED_FIXTURE_DIR = GOLDEN_FIXTURE_DIR / "cued"

#: The checked-in concurrent-order fixture: soft-focused at K=8 under
#: the default clock.  Soft-focused because its two priority bands make
#: frontier order (and therefore the fixture) genuinely sensitive to
#: *when* completions land, not just to what was discovered.
SCHED_GOLDEN_CONCURRENCY = 8
SCHED_GOLDEN_STRATEGY = "soft-focused"


def golden_strategies() -> dict[str, Callable[[], CrawlStrategy]]:
    """The strategy matrix the golden suite pins, by fixture name.

    Breadth-first, both simple modes, and limited-distance N ∈ {1, 2} in
    both priority modes — one strategy per frontier discipline and
    priority-band shape the engine supports.
    """
    def limited(n: int, prioritized: bool = False) -> Callable[[], CrawlStrategy]:
        return lambda: get_strategy("limited-distance", n=n, prioritized=prioritized)

    return {
        "breadth-first": lambda: get_strategy("breadth-first"),
        "hard-focused": lambda: get_strategy("hard-focused"),
        "soft-focused": lambda: get_strategy("soft-focused"),
        "limited-distance-n1": limited(1),
        "limited-distance-n1-prioritized": limited(1, prioritized=True),
        "limited-distance-n2": limited(2),
        "limited-distance-n2-prioritized": limited(2, prioritized=True),
    }


def cued_golden_strategies() -> dict[str, Callable[[], CrawlStrategy]]:
    """The context-aware family, by fixture name (registered defaults)."""
    return {
        name: (lambda name=name: get_strategy(name))
        for name in ("pdd-hybrid", "pal-content-link", "infospiders")
    }


def golden_dataset() -> Dataset:
    """The web the traces are recorded on: ``thai_profile().scaled(GOLDEN_SCALE)``,
    read from its checked-in page store."""
    return read_dataset(_STORE_DIR / "thai-golden.v2.lswc")


def cued_golden_dataset() -> Dataset:
    """The golden web with link cues switched on (the tournament's rates):
    ``cued_thai_profile(GOLDEN_SCALE)``, read from its checked-in page store."""
    return read_dataset(_STORE_DIR / "thai-cued-golden.v2.lswc")


def record_golden_trace(
    dataset: Dataset,
    strategy: CrawlStrategy,
    config: SessionConfig = SessionConfig(max_pages=GOLDEN_MAX_PAGES),
) -> list[dict]:
    """The exact fetch order + per-page relevance of one crawl under ``config``.

    Returns one row per fetch, in order:
    ``{"step": n, "url": str, "relevant": bool}``.  A config with
    ``concurrency=K`` keeps K fetches in flight on a virtual clock of its
    ``timing`` (default: the stock clock); with ``concurrency=1`` the
    trace must equal the round-based one — the K=1 equivalence contract
    ``tests/golden/test_golden_sched.py`` pins.
    """
    rows: list[dict] = []

    def observe(event) -> None:
        rows.append(
            {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
        )

    run_strategy(dataset, strategy, replace(config, on_fetch=observe))
    return rows


def _write_fixture(
    path: Path, dataset: Dataset, name: str, strategy: CrawlStrategy, config: SessionConfig
) -> Path:
    """Record one crawl into ``path``: the header line, then one line per fetch."""
    rows = record_golden_trace(dataset, strategy, config)
    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "profile": dataset.profile.name,
        "scale": GOLDEN_SCALE,
        "strategy": name,
        "max_pages": config.max_pages,
        "pages": len(rows),
    }
    if config.concurrency is not None:
        header["concurrency"] = config.concurrency
    with open(path, "w", encoding="utf-8") as handle:
        for line in (header, *rows):
            handle.write(json.dumps(line, sort_keys=True) + "\n")
    return path


def write_sched_traces(
    directory: str | Path = SCHED_FIXTURE_DIR,
    dataset: Dataset | None = None,
    max_pages: int = GOLDEN_MAX_PAGES,
    progress: Callable[[str], None] | None = None,
) -> list[Path]:
    """Record and serialise the concurrent-order fixture (K=8).

    One fixture is enough: the K=1 side of the differential is pinned
    against the *round-based* fixtures (that is the equivalence
    contract), so only genuinely concurrent ordering needs its own
    checked-in reference.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda _message: None)
    name = f"{SCHED_GOLDEN_STRATEGY}-k{SCHED_GOLDEN_CONCURRENCY}"
    say(f"recording {name} ...")
    path = _write_fixture(
        directory / f"{name}.jsonl",
        dataset or golden_dataset(),
        SCHED_GOLDEN_STRATEGY,
        golden_strategies()[SCHED_GOLDEN_STRATEGY](),
        SessionConfig(max_pages=max_pages, concurrency=SCHED_GOLDEN_CONCURRENCY),
    )
    say(f"wrote sched trace to {path}")
    return [path]


def write_golden_traces(
    directory: str | Path = GOLDEN_FIXTURE_DIR,
    dataset: Dataset | None = None,
    max_pages: int = GOLDEN_MAX_PAGES,
    progress: Callable[[str], None] | None = None,
    strategies: dict[str, Callable[[], CrawlStrategy]] | None = None,
) -> list[Path]:
    """Record and serialise a golden matrix into ``directory``.

    ``strategies`` defaults to :func:`golden_strategies` (and
    ``dataset`` to :func:`golden_dataset`); the cued matrix passes its
    own pair.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda _message: None)
    dataset = dataset or golden_dataset()
    written: list[Path] = []
    for name, factory in (strategies or golden_strategies()).items():
        say(f"recording {name} ...")
        written.append(
            _write_fixture(
                directory / f"{name}.jsonl",
                dataset,
                name,
                factory(),
                SessionConfig(max_pages=max_pages),
            )
        )
    say(f"wrote {len(written)} golden traces to {directory}")
    return written


def write_cued_traces(
    directory: str | Path = CUED_FIXTURE_DIR,
    progress: Callable[[str], None] | None = None,
) -> list[Path]:
    """Record and serialise the cue-reading family on the cued golden web."""
    return write_golden_traces(
        directory,
        dataset=cued_golden_dataset(),
        progress=progress,
        strategies=cued_golden_strategies(),
    )


def read_golden_trace(path: str | Path) -> tuple[dict, list[dict]]:
    """Load one fixture: ``(header, rows)``.

    Raises:
        ReproError: on a missing/foreign header or unsupported version.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ReproError(f"{path}: empty golden-trace file")
        header = json.loads(header_line)
        if header.get("format") != _FORMAT_NAME:
            raise ReproError(f"{path}: not a golden trace (format={header.get('format')!r})")
        if header.get("version") != _FORMAT_VERSION:
            raise ReproError(f"{path}: unsupported version {header.get('version')!r}")
        rows = [json.loads(line) for line in handle if line.strip()]
    return header, rows


def first_divergence(expected: list[dict], actual: list[dict]) -> str | None:
    """Human-readable description of the first trace mismatch, or None.

    The message names the step and both sides' rows — exactly what a CI
    failure needs to be actionable without re-running locally.
    """
    for index, (want, got) in enumerate(zip(expected, actual)):
        if want != got:
            return (
                f"first divergence at step {index + 1}: "
                f"expected {json.dumps(want, sort_keys=True)}, "
                f"got {json.dumps(got, sort_keys=True)}"
            )
    if len(expected) != len(actual):
        return (
            f"trace length mismatch: expected {len(expected)} fetches, "
            f"got {len(actual)} (first {min(len(expected), len(actual))} agree)"
        )
    return None
