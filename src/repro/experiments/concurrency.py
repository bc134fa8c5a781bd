"""Figure-5 queue dynamics under K concurrent fetch slots.

The paper's Figure 5 plots URL-queue size for the hard- and soft-focused
strategies with an instantaneous fetch model.  Under the engine's
slotted issue policy (``CrawlEngine(concurrency=K)``) the same sweep
gains a new axis: with K fetches in flight, frontier order — and
therefore queue growth — depends on latency, bandwidth and per-site
politeness.  This module produces that sweep as a machine-readable
payload; ``benchmarks/bench_fig5_concurrency.py`` renders and gates it.
Every cell of the (strategy × K) grid is one
:class:`~repro.exec.RunSpec` on the shared sweep path
(:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

import argparse
import functools

from repro.core.session import SessionConfig
from repro.core.timing import TimingModel
from repro.exec import DatasetSpec, RunSpec
from repro.experiments.datasets import Dataset, load_or_build_dataset
from repro.experiments.sweep import comma_list, run_cells, sweep_digest, sweep_main
from repro.graphgen.profiles import thai_profile

__all__ = ["DEFAULT_KS", "DEFAULT_STRATEGIES", "concurrency_sweep"]

#: The concurrency ladder of the headline sweep: serial equivalence
#: anchor, a small politeness-bound fleet, and two saturation points.
DEFAULT_KS: tuple[int, ...] = (1, 8, 64, 256)

#: Figure 5's pair: the strategies whose queue dynamics the paper plots.
DEFAULT_STRATEGIES: tuple[str, ...] = ("hard-focused", "soft-focused")


def concurrency_sweep(
    dataset: Dataset,
    ks: tuple[int, ...] = DEFAULT_KS,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    max_pages: int | None = None,
    timing: TimingModel = TimingModel(),
    workers: int = 0,
) -> dict:
    """Run the (strategy × K) grid; returns the Fig-5 payload.

    Each cell runs the engine with ``concurrency=K`` fetch slots on its
    own clock of ``timing``'s settings (default: the stock clock).
    """
    dataset_spec = DatasetSpec.from_dataset(dataset)
    runs = run_cells(
        [(strategy, k) for strategy in strategies for k in ks],
        lambda strategy, k: RunSpec(
            dataset=dataset_spec,
            strategy=strategy,
            config=SessionConfig(max_pages=max_pages, timing=timing, concurrency=k),
        ),
        workers,
    )

    rows = []
    for (strategy, k), result in runs:
        sim_seconds = result.summary.simulated_seconds
        rows.append(
            {
                "strategy": result.strategy,
                "concurrency": k,
                "pages": result.pages_crawled,
                "max_queue_size": result.summary.max_queue_size,
                "final_queue_size": result.series.queue_size[-1],
                "harvest_rate": round(result.summary.final_harvest_rate, 6),
                "coverage": round(result.summary.final_coverage, 6),
                "sim_seconds": round(sim_seconds, 3),
                "pages_per_virtual_second": (
                    round(result.pages_crawled / sim_seconds, 3) if sim_seconds > 0 else None
                ),
                "queue_series": list(result.series.queue_size),
            }
        )
    payload = {
        "figure": "5-concurrency",
        "dataset": dataset.name,
        "pages_in_dataset": len(dataset.crawl_log),
        "max_pages": max_pages,
        "ks": list(ks),
        "strategies": list(strategies),
        "timing": {
            "bandwidth_bytes_per_s": timing.bandwidth_bytes_per_s,
            "latency_s": timing.latency_s,
            "politeness_interval_s": timing.politeness_interval_s,
        },
        "rows": rows,
    }
    payload["digest_sha256"] = sweep_digest(payload)
    return payload


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.concurrency",
        description="Fig-5 queue-size sweep across concurrency levels (Thai profile)",
    )
    parser.add_argument("--scale", type=float, default=0.05, help="universe scale factor")
    parser.add_argument(
        "--ks",
        type=comma_list(int, minimum=1),
        default=DEFAULT_KS,
        help="comma-separated concurrency levels",
    )
    parser.add_argument("--max-pages", type=int, default=None, help="page cap per run")
    return sweep_main(
        parser,
        lambda args: functools.partial(
            concurrency_sweep,
            load_or_build_dataset(thai_profile().scaled(args.scale)),
            ks=args.ks,
            max_pages=args.max_pages,
        ),
        argv,
    )


if __name__ == "__main__":
    raise SystemExit(_main())
