"""Survival gates for the adversary layer and its engine defenses.

Two claims are pinned here, both numeric:

1. **Survival matrix** — on the golden-scale Thai web, every named
   adversarial scenario measurably degrades defenseless coverage for
   the simple strategies, and the standard defense preset recovers at
   least half the lost coverage under the traps / aliases / combined
   scenarios.  Coverage (explicit recall), not harvest rate, is the
   survival metric: alias fetches keep the canonical record, so harvest
   barely moves while recall collapses.
2. **Clean-path overhead** — threading a crawl through the inert seams
   (an empty :class:`~repro.adversary.AdversaryModel` wrapper plus a
   disabled :class:`~repro.adversary.DefenseConfig`) must stay within
   5% of the bare engine.  Correctness of the seams is pinned by the
   golden differential (``tests/golden/test_golden_adversary.py``:
   byte-identical traces); this pins the cost.

Writes ``benchmarks/results/BENCH_adversarial_survival.json``.
"""

from __future__ import annotations

import json
import time

from repro.adversary import AdversaryModel, DefenseConfig
from repro.core.session import SessionConfig
from repro.core.strategies import (
    BacklinkCountStrategy,
    BreadthFirstStrategy,
    DistilledSoftStrategy,
    SimpleStrategy,
)
from repro.experiments.adversweep import adversarial_sweep
from repro.experiments.datasets import load_or_build_dataset
from repro.experiments.runner import run_strategies
from repro.graphgen.profiles import thai_profile

from conftest import BENCH_SCALE, CACHE_DIR

#: The survival matrix runs at golden scale: the scenario rates are
#: tuned to dent a ~1.6k-page web within the golden page cap, and the
#: matrix (3 strategies × 7 scenarios × 2 seeds × 2 arms) stays cheap.
MATRIX_SCALE = 0.02
MATRIX_MAX_PAGES = 1100

#: Strategies held to the half-gap recovery bar, and the scenarios that
#: must both hurt (defenses off) and heal (defenses on).
GATED_STRATEGIES = ("breadth-first", "soft-focused")
GATED_SCENARIOS = ("traps", "aliases", "combined")
MIN_GAP = 0.01
MIN_RECOVERY_RATIO = 0.5

TRIALS = 3
MAX_OVERHEAD_RATIO = 1.05


def test_survival_matrix_and_overhead(results_dir):
    # Time the seams before the matrix floods the process with cache and
    # GC state — both timing arms must see the same interpreter history.
    overhead = _clean_path_overhead()

    dataset = load_or_build_dataset(thai_profile().scaled(MATRIX_SCALE), cache_dir=CACHE_DIR)
    payload = adversarial_sweep(dataset, max_pages=MATRIX_MAX_PAGES)

    summary = {
        (row["strategy"], row["scenario"]): row for row in payload["summary"]
    }
    gate_rows = []
    for strategy in GATED_STRATEGIES:
        for scenario in GATED_SCENARIOS:
            row = summary[(strategy, scenario)]
            gate_rows.append(row)
            assert row["gap"] >= MIN_GAP, (
                f"{scenario} barely hurts {strategy} with defenses off "
                f"(coverage gap {row['gap']:.4f} < {MIN_GAP}) — the scenario "
                "rates no longer produce a measurable attack"
            )
            assert row["recovery_ratio"] >= MIN_RECOVERY_RATIO, (
                f"standard defenses recover only {row['recovery_ratio']:.2f} "
                f"of the {scenario} coverage gap for {strategy} "
                f"(need >= {MIN_RECOVERY_RATIO})"
            )

    lines = [
        "Adversarial survival (coverage, seed-averaged)",
        f"  dataset: {payload['dataset']}  max_pages: {MATRIX_MAX_PAGES}",
        f"  {'strategy':14s} {'scenario':10s} {'clean':>7s} {'off':>7s} {'on':>7s} {'ratio':>6s}",
    ]
    for row in payload["summary"]:
        ratio = row["recovery_ratio"]
        lines.append(
            f"  {row['strategy']:14s} {row['scenario']:10s}"
            f" {row['clean_coverage']:7.4f} {row['off_coverage']:7.4f}"
            f" {row['on_coverage']:7.4f} {ratio if ratio is not None else '—':>6}"
        )
    lines.append(
        f"  clean-path seam overhead: {overhead['overhead_ratio']:.3f}x"
        f" (gate {MAX_OVERHEAD_RATIO}x, scale {BENCH_SCALE})"
    )
    text = "\n".join(lines)

    data = {
        "matrix": payload,
        "gates": {
            "min_gap": MIN_GAP,
            "min_recovery_ratio": MIN_RECOVERY_RATIO,
            "gated_strategies": list(GATED_STRATEGIES),
            "gated_scenarios": list(GATED_SCENARIOS),
            "gated_rows": gate_rows,
            "max_overhead_ratio": MAX_OVERHEAD_RATIO,
        },
        "overhead": overhead,
    }
    print()
    print(text)
    (results_dir / "adversarial_survival.txt").write_text(text)
    (results_dir / "BENCH_adversarial_survival.json").write_text(
        json.dumps(
            {"name": "adversarial_survival", "scale": BENCH_SCALE, "data": data},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    assert overhead["overhead_ratio"] < MAX_OVERHEAD_RATIO, (
        f"inert adversary/defense seams cost {overhead['overhead_ratio']:.3f}x "
        f"(gate {MAX_OVERHEAD_RATIO}x; bare best {overhead['bare_best_s']}s, "
        f"seamed best {overhead['seamed_best_s']}s)"
    )


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


def _clean_path_overhead() -> dict:
    dataset = load_or_build_dataset(thai_profile().scaled(BENCH_SCALE), cache_dir=CACHE_DIR)
    # Warm-up pays dataset/web construction for both variants; discard.
    _time_sweep(dataset, trials=1)
    bare = _time_sweep(dataset)
    seamed = _time_sweep(
        dataset, adversary=AdversaryModel(), defenses=DefenseConfig()
    )
    return {
        "method": (
            f"best of {TRIALS} back-to-back trials of run_strategies() over "
            "[breadth-first, soft-focused, distilled-soft, backlink-count], "
            "warm dataset cache, same machine and session for both loops; "
            "seamed variant wraps the web in an empty-profile AdversaryModel "
            "and passes an all-default (disabled) DefenseConfig"
        ),
        "bare_trials_s": bare,
        "bare_best_s": min(bare),
        "seamed_trials_s": seamed,
        "seamed_best_s": min(seamed),
        "overhead_ratio": round(min(seamed) / min(bare), 4),
    }
