"""Figure 5 under the virtual-time scheduler: queue dynamics vs K.

The sweep re-plots the paper's Figure 5 (URL queue size, hard- vs
soft-focused, Thai) on the event-driven engine at K ∈ {1, 8, 64, 256}
fetch slots, and gates three properties:

- **Order-stability of the paper's claim** — the soft-focused queue
  dominates the hard-focused one at *every* concurrency level: overlap
  changes frontier order, not the memory-cost argument.
- **Throughput scaling** — pages per virtual second rise with K until
  the per-site politeness interval saturates the ladder (the hard-focused
  crawl, confined to relevant hosts, saturates earlier than the
  soft-focused one).
- **K=1 overhead** — the event loop's bookkeeping (heap, reservations)
  over the round-based engine at the same K=1 workload stays within
  ``OVERHEAD_GATE``.  Byte-identity of the *output* is tier-1
  (``tests/golden/test_golden_sched.py``); this gates the *cost*.
  Wall-clock gates flake on noisy runners, so the assert only fires
  when the round-based trials themselves were quiet
  (max/min < ``NOISE_CEILING``); the JSON artifact records the ratio
  either way.

Writes ``benchmarks/results/BENCH_fig5_concurrency.json``.
"""

from __future__ import annotations

import time

from repro.core.session import SessionConfig
from repro.core.timing import TimingModel
from repro.experiments.concurrency import DEFAULT_KS, concurrency_sweep
from repro.experiments.report import render_table
from repro.experiments.runner import run_strategy

from conftest import emit

TRIALS = 5
OVERHEAD_GATE = 1.05
NOISE_CEILING = 1.10
STRATEGIES = ("hard-focused", "soft-focused")


def _overhead_measurement(dataset) -> dict:
    """Best-of-``TRIALS`` wall time: round-based vs event-driven K=1.

    Pooled across both strategies (one ratio, less variance than two).
    """
    def run(strategy: str, concurrency: int | None) -> float:
        best = float("inf")
        for _ in range(TRIALS):
            start = time.perf_counter()
            run_strategy(
                dataset, strategy, SessionConfig(timing=TimingModel(), concurrency=concurrency)
            )
            best = min(best, time.perf_counter() - start)
        return best

    round_based = {name: run(name, None) for name in STRATEGIES}
    event_k1 = {name: run(name, 1) for name in STRATEGIES}

    # Noise of the round-based side, re-measured: one extra trial set to
    # judge whether the box is quiet enough to enforce a 5% wall gate.
    noise_probe = {name: run(name, None) for name in STRATEGIES}
    pooled_rb = sum(round_based.values())
    pooled_probe = sum(noise_probe.values())
    noise = max(pooled_rb, pooled_probe) / min(pooled_rb, pooled_probe)

    pooled_rb = min(pooled_rb, pooled_probe)
    ratio = sum(event_k1.values()) / pooled_rb
    return {
        "trials": TRIALS,
        "round_based_best_s": {name: round(value, 4) for name, value in round_based.items()},
        "event_k1_best_s": {name: round(value, 4) for name, value in event_k1.items()},
        "overhead_ratio": round(ratio, 4),
        "overhead_gate": OVERHEAD_GATE,
        "noise": round(noise, 4),
        "noise_ceiling": NOISE_CEILING,
        "gate_enforced": noise < NOISE_CEILING,
    }


def test_fig5_concurrency(benchmark, thai_bench, results_dir):
    payload = benchmark.pedantic(
        lambda: concurrency_sweep(thai_bench), rounds=1, iterations=1
    )

    # Determinism: the whole sweep re-run must reproduce its digest.
    assert concurrency_sweep(thai_bench)["digest_sha256"] == payload["digest_sha256"]

    overhead = _overhead_measurement(thai_bench)
    payload["overhead_k1"] = overhead

    table_rows = [
        {
            key: row[key]
            for key in (
                "strategy",
                "concurrency",
                "pages",
                "max_queue_size",
                "sim_seconds",
                "pages_per_virtual_second",
            )
        }
        for row in payload["rows"]
    ]
    text = render_table(
        table_rows,
        title="Figure 5 × concurrency: URL queue size and virtual-time throughput",
    )
    text += (
        f"\nK=1 event-loop overhead vs round-based: "
        f"{overhead['overhead_ratio']}x (gate {OVERHEAD_GATE}x, "
        f"enforced={overhead['gate_enforced']})"
    )
    emit(results_dir, "fig5_concurrency", text, data=payload)

    by_cell = {(row["strategy"], row["concurrency"]): row for row in payload["rows"]}
    ks = payload["ks"]
    assert tuple(ks) == DEFAULT_KS

    for strategy in STRATEGIES:
        ladder = [by_cell[(strategy, k)] for k in ks]
        # Concurrency reorders the crawl; it must not change what gets
        # crawled — every K reaches the same page count and drains.
        assert len({row["pages"] for row in ladder}) == 1
        for row in ladder:
            assert row["final_queue_size"] == 0
        # Virtual time falls (weakly) as K rises, strictly from 1 to 8.
        sims = [row["sim_seconds"] for row in ladder]
        assert all(a >= b for a, b in zip(sims, sims[1:]))
        assert sims[0] > 1.5 * sims[1]
        # Throughput rises until politeness saturates the ladder.
        pps = [row["pages_per_virtual_second"] for row in ladder]
        assert all(a <= b + 1e-9 for a, b in zip(pps, pps[1:]))

    # The paper's Figure-5 gap survives concurrency: the soft-focused
    # queue peak dominates the hard-focused one at every K.
    for k in ks:
        assert (
            by_cell[("soft-focused", k)]["max_queue_size"]
            > 3 * by_cell[("hard-focused", k)]["max_queue_size"]
        )

    if overhead["gate_enforced"]:
        assert overhead["overhead_ratio"] <= OVERHEAD_GATE, (
            f"K=1 event loop costs {overhead['overhead_ratio']}x the "
            f"round-based engine (gate {OVERHEAD_GATE}x)"
        )
