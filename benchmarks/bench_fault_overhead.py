"""Overhead gate for the resilience layer.

The resilient crawl loop (retry, circuit breakers, requeue accounting)
exists for crawls that *meet faults*; a healthy crawl must not pay for
it.  Correctness of that claim is pinned by the golden differential
(`tests/golden/test_golden_resilience.py`: byte-identical traces); this
benchmark pins the *cost*: the PR-2 strategy sweep with the full
resilience configuration attached — breakers armed, zero faults
injected — must stay within 5% of the clean engine, same machine, same
session, best of three.

Writes ``benchmarks/results/BENCH_fault_overhead.json`` echoing the
PR-2 speedup baseline it protects.
"""

from __future__ import annotations

import json
import time

from repro.core.session import SessionConfig
from repro.core.strategies import (
    BacklinkCountStrategy,
    BreadthFirstStrategy,
    DistilledSoftStrategy,
    SimpleStrategy,
)
from repro.experiments.runner import run_strategies
from repro.faults import ResilienceConfig

from conftest import BENCH_SCALE

TRIALS = 3
MAX_OVERHEAD_RATIO = 1.05

# The PR-2 optimisation baseline this gate protects (see
# BENCH_speedup_strategies.json): the resilient loop must not claw back
# what that PR won.
REFERENCE = {"commit": "68a02c0", "optimised_best_s": 2.656}


def _sweep_strategies():
    return [
        BreadthFirstStrategy(),
        SimpleStrategy(mode="soft"),
        DistilledSoftStrategy(),
        BacklinkCountStrategy(),
    ]


def _time_sweep(dataset, trials: int = TRIALS, **kwargs) -> list[float]:
    timings = []
    for _ in range(trials):
        start = time.perf_counter()
        run_strategies(dataset, _sweep_strategies(), SessionConfig(**kwargs))
        timings.append(round(time.perf_counter() - start, 3))
    return timings


def test_fault_overhead_under_five_percent(thai_bench, results_dir):
    # Warm-up: first sweep pays dataset/web construction and cache
    # population for both variants alike; discard it.
    _time_sweep(thai_bench, trials=1)

    clean = _time_sweep(thai_bench)
    resilient = _time_sweep(thai_bench, resilience=ResilienceConfig())

    ratio = round(min(resilient) / min(clean), 4)
    payload = {
        "name": "fault_overhead",
        "benchmark": "bench_fault_overhead.py::test_fault_overhead_under_five_percent (sweep body)",
        "scale": BENCH_SCALE,
        "dataset": thai_bench.name,
        "pages": len(thai_bench.crawl_log),
        "method": (
            f"best of {TRIALS} back-to-back trials of run_strategies() over "
            "[breadth-first, soft-focused, distilled-soft, backlink-count], "
            "warm dataset cache, same machine and session for both loops; "
            "resilient variant runs ResilienceConfig() (retry + breakers armed) "
            "with zero faults configured"
        ),
        "baseline_commit": REFERENCE["commit"],
        "baseline_optimised_best_s": REFERENCE["optimised_best_s"],
        "clean_trials_s": clean,
        "clean_best_s": min(clean),
        "resilient_trials_s": resilient,
        "resilient_best_s": min(resilient),
        "overhead_ratio": ratio,
        "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        "equivalence": (
            "resilient no-fault replay is byte-identical to all 7 golden "
            "fixtures (tests/golden/test_golden_resilience.py)"
        ),
    }
    (results_dir / "BENCH_fault_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert ratio < MAX_OVERHEAD_RATIO, (
        f"resilient loop overhead {ratio:.3f}x exceeds {MAX_OVERHEAD_RATIO}x "
        f"(clean best {min(clean)}s, resilient best {min(resilient)}s)"
    )
