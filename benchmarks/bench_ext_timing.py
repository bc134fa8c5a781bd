"""Extension E1: the timing model (paper §6 future work).

"We also would like to enhance our crawling simulator by incorporating
transfer delays and access intervals in the simulation."  This benchmark
runs that enhancement: the same crawl with and without per-server
politeness, reporting simulated wall-clock and asserting that access
intervals — not transfer time — dominate crawl duration, for every
strategy.  (Both breadth-first and focused crawls slow down by well over
an order of magnitude at a 1-second per-site interval; which one suffers
more depends on how bursty its per-host request pattern is, so no
direction is asserted between them.)

The politeness variants are :class:`~repro.exec.RunSpec` cells whose
config carries a :class:`~repro.core.timing.TimingModel`, so each point
of the sweep runs on its own fresh clock, and the whole sweep fans out
over :class:`~repro.exec.SweepExecutor` workers — with a sha256 gate
pinning the worker results to the serial ones.
"""

from repro.core.session import SessionConfig
from repro.core.timing import TimingModel
from repro.exec import DatasetSpec, RunSpec
from repro.experiments.report import render_table
from repro.experiments.sweep import run_cells

from conftest import canonical_hash, emit

MAX_PAGES = 6000
STRATEGIES = ["breadth-first", "hard-focused"]


def _sweep(dataset, politeness: float, workers: int = 0):
    dataset_spec = DatasetSpec.from_dataset(dataset)
    config = SessionConfig(
        max_pages=MAX_PAGES,
        timing=TimingModel(politeness_interval_s=politeness, connections=32),
    )
    runs = run_cells(
        [(name,) for name in STRATEGIES],
        lambda name: RunSpec(dataset=dataset_spec, strategy=name, config=config),
        workers,
    )
    return {result.strategy: result for _, result in runs}


def test_ext_timing_model(benchmark, thai_bench, results_dir):
    def sweep():
        return _sweep(thai_bench, politeness=0.0), _sweep(thai_bench, politeness=1.0)

    fast_results, polite_results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Timed sweeps fanned out to worker processes must not move a byte:
    # every session builds its own clock from the config on both paths.
    fast_digest = canonical_hash(fast_results)
    polite_digest = canonical_hash(polite_results)
    assert canonical_hash(_sweep(thai_bench, politeness=0.0, workers=2)) == fast_digest
    assert canonical_hash(_sweep(thai_bench, politeness=1.0, workers=2)) == polite_digest

    rows = []
    for name in fast_results:
        fast = fast_results[name].summary.simulated_seconds
        polite = polite_results[name].summary.simulated_seconds
        rows.append(
            {
                "strategy": name,
                "sim_seconds_no_politeness": round(fast, 1),
                "sim_seconds_polite_1s": round(polite, 1),
                "slowdown": round(polite / fast, 2),
            }
        )

    text = render_table(
        rows, title=f"Extension E1: simulated crawl time, first {MAX_PAGES} pages"
    )
    text += f"\nsweep sha256 (serial == workers=2): {fast_digest} / {polite_digest}"
    emit(results_dir, "ext_timing", text)

    for row in rows:
        # Politeness can only slow a crawl down — and at a 1s per-site
        # interval it dominates transfer time by a wide margin.
        assert row["sim_seconds_polite_1s"] >= row["sim_seconds_no_politeness"]
        assert row["slowdown"] > 5.0
