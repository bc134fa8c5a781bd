"""Overhead gate for the unified crawl engine.

This PR collapsed the three crawl loops (plain, instrumented,
resilient) into one stage-pipeline engine whose observers attach as
hooks.  Correctness is pinned by the golden differential suite (all
seven fixtures replay byte-identically through the engine); this
benchmark pins the *cost* of the unification: the PR-2 strategy sweep
run through the hooked engine — a live hook observing every step plus
no-op hooks on the stack — must stay within 5% of the bare engine,
same machine, same session, best of three.

The bare engine is itself the PR-2 fast path (hook dispatch compiles to
``None`` when nobody listens), so this gate protects the PR-2 speedup
baseline end to end.

Writes ``benchmarks/results/BENCH_engine_unification.json``.
"""

from __future__ import annotations

import json
import time

from repro.core.engine import EngineHook, EngineStep
from repro.core.session import SessionConfig
from repro.experiments.runner import run_strategies

from conftest import BENCH_SCALE

TRIALS = 3
MAX_OVERHEAD_RATIO = 1.05

# The PR-2 optimisation baseline this gate protects (see
# BENCH_speedup_strategies.json): hook dispatch must not claw back what
# that PR won.
REFERENCE = {"commit": "68a02c0", "optimised_best_s": 2.656}

SWEEP = ["breadth-first", "soft-focused", "distilled-soft", "backlink-count"]


class _CountingHook(EngineHook):
    """A live observer: one dispatched callback per crawled page."""

    def __init__(self) -> None:
        self.steps = 0

    def on_step(self, step: EngineStep) -> None:
        self.steps += 1


class _NoOpHook(EngineHook):
    """Overrides nothing — must compile out of the dispatch entirely."""


def _time_sweep(dataset, trials: int = TRIALS, **kwargs) -> list[float]:
    timings = []
    for _ in range(trials):
        start = time.perf_counter()
        run_strategies(dataset, SWEEP, SessionConfig(**kwargs))
        timings.append(round(time.perf_counter() - start, 3))
    return timings


def test_hooked_engine_within_five_percent_of_fast_path(thai_bench, results_dir):
    # Warm-up: the first sweep pays dataset/web construction and cache
    # population for both variants alike; discard it.
    _time_sweep(thai_bench, trials=1)

    bare = _time_sweep(thai_bench)
    counting = _CountingHook()
    hooked = _time_sweep(thai_bench, hooks=(_NoOpHook(), counting, _NoOpHook()))
    assert counting.steps > 0, "the hook stack never fired — wiring is broken"

    ratio = round(min(hooked) / min(bare), 4)
    payload = {
        "name": "engine_unification",
        "benchmark": (
            "bench_engine_unification.py::"
            "test_hooked_engine_within_five_percent_of_fast_path (sweep body)"
        ),
        "scale": BENCH_SCALE,
        "dataset": thai_bench.name,
        "pages": len(thai_bench.crawl_log),
        "method": (
            f"best of {TRIALS} back-to-back trials of run_strategies() over "
            f"{SWEEP}, warm dataset cache, same machine and session for both "
            "variants; hooked variant attaches two no-op hooks plus a live "
            "per-step counting hook to every engine"
        ),
        "baseline_commit": REFERENCE["commit"],
        "baseline_optimised_best_s": REFERENCE["optimised_best_s"],
        "bare_trials_s": bare,
        "bare_best_s": min(bare),
        "hooked_trials_s": hooked,
        "hooked_best_s": min(hooked),
        "hooked_steps_observed": counting.steps,
        "overhead_ratio": ratio,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "equivalence": (
            "unified engine replays all 7 golden fixtures byte-identically "
            "(tests/golden/), and a no-op hook stack reproduces the unhooked "
            "trace (tests/test_core_engine.py)"
        ),
    }
    (results_dir / "BENCH_engine_unification.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert ratio < MAX_OVERHEAD_RATIO, (
        f"hooked engine overhead {ratio:.3f}x exceeds {MAX_OVERHEAD_RATIO}x "
        f"(bare best {min(bare)}s, hooked best {min(hooked)}s)"
    )
