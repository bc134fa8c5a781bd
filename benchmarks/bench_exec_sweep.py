"""Wall-clock and determinism gate for the multiprocess sweep executor.

The executor's promise is twofold: fanning a sweep out to worker
processes (a) never changes a byte of the results and (b) buys
wall-clock on multi-core machines.  This benchmark measures a standard
strategy sweep serially and at ``workers=2`` / ``workers=4``, hashes
each variant's canonical results to pin (a), and records the speedups
for (b).

The speedup gate (>= 1.8x at ``workers=4``) is only *asserted* when the
machine actually has >= 4 CPUs — on fewer cores a process pool cannot
beat serial and pretending otherwise would gate CI on the shape of the
runner, not the code.  ``cpu_count`` is recorded in the payload either
way, so the JSON artifact is honest about what was measured where.

Writes ``benchmarks/results/BENCH_exec_sweep.json``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time

from repro.exec import DatasetSpec
from repro.experiments.sweep import run_cells, strategy_spec

from conftest import BENCH_SCALE

TRIALS = 3
MIN_SPEEDUP_W4 = 1.8

SWEEP = [
    ("breadth-first", {}),
    ("hard-focused", {}),
    ("soft-focused", {}),
    ("limited-distance", {"n": 2}),
]


def _sweep(dataset, strategies, workers: int = 0) -> dict:
    dataset_spec = DatasetSpec.from_dataset(dataset)
    runs = run_cells(strategies, lambda *ref: strategy_spec(dataset_spec, ref), workers)
    return {result.strategy: result for _, result in runs}


def _canonical_hash(results: dict) -> str:
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


def _time_sweep(dataset, workers: int) -> tuple[list[float], str]:
    timings = []
    digest = None
    for _ in range(TRIALS):
        start = time.perf_counter()
        results = _sweep(dataset, SWEEP, workers)
        timings.append(round(time.perf_counter() - start, 3))
        digest = _canonical_hash(results)
    assert digest is not None
    return timings, digest


def test_worker_sweep_is_identical_and_scales(thai_bench, results_dir):
    # Warm-up: pay dataset/web construction and the disk-cache write the
    # workers will read, outside the timed region.
    _sweep(thai_bench, SWEEP[:1])
    _sweep(thai_bench, SWEEP[:2], workers=2)

    cpu_count = os.cpu_count() or 1
    serial_trials, serial_hash = _time_sweep(thai_bench, workers=0)
    w2_trials, w2_hash = _time_sweep(thai_bench, workers=2)
    w4_trials, w4_hash = _time_sweep(thai_bench, workers=4)

    speedup_w2 = round(min(serial_trials) / min(w2_trials), 3)
    speedup_w4 = round(min(serial_trials) / min(w4_trials), 3)
    gate_enforced = cpu_count >= 4

    payload = {
        "name": "exec_sweep",
        "benchmark": "bench_exec_sweep.py::test_worker_sweep_is_identical_and_scales",
        "scale": BENCH_SCALE,
        "dataset": thai_bench.name,
        "pages": len(thai_bench.crawl_log),
        "cpu_count": cpu_count,
        "method": (
            f"best of {TRIALS} trials of one RunSpec sweep (run_cells) over {len(SWEEP)} "
            "strategies, warm dataset cache; workers>0 fans runs out over a "
            "ProcessPoolExecutor (repro.exec.SweepExecutor) and merges in "
            "submission order"
        ),
        "serial_trials_s": serial_trials,
        "serial_best_s": min(serial_trials),
        "workers2_trials_s": w2_trials,
        "workers2_best_s": min(w2_trials),
        "workers4_trials_s": w4_trials,
        "workers4_best_s": min(w4_trials),
        "speedup_workers2": speedup_w2,
        "speedup_workers4": speedup_w4,
        "min_speedup_workers4": MIN_SPEEDUP_W4,
        "speedup_gate_enforced": gate_enforced,
        "determinism_sha256": serial_hash,
        "determinism": (
            "sha256 over the sorted-JSON results (series + summary + "
            "resilience; wall_seconds excluded) of every variant"
        ),
    }
    (results_dir / "BENCH_exec_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    assert serial_hash == w2_hash == w4_hash, (
        "worker sweep diverged from serial: "
        f"serial={serial_hash} w2={w2_hash} w4={w4_hash}"
    )
    if gate_enforced:
        assert speedup_w4 >= MIN_SPEEDUP_W4, (
            f"workers=4 speedup {speedup_w4}x under the {MIN_SPEEDUP_W4}x "
            f"floor on a {cpu_count}-CPU machine "
            f"(serial best {min(serial_trials)}s, w4 best {min(w4_trials)}s)"
        )
