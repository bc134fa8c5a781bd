"""Figure-5 queue dynamics under K concurrent fetch slots.

The paper's Figure 5 plots URL-queue size for the hard- and soft-focused
strategies with an instantaneous fetch model.  Under the engine's
slotted issue policy (``CrawlEngine(concurrency=K)``) the same sweep
gains a new axis: with K fetches in flight, frontier order — and
therefore queue growth — depends on latency, bandwidth and per-site
politeness.  This module produces that sweep as a machine-readable
payload; ``benchmarks/bench_fig5_concurrency.py`` renders and gates it,
and CI runs the small ``python -m repro.experiments.concurrency`` smoke
with a digest-equality determinism check.

Every cell of the (strategy × K) grid is an independent run, so the
sweep fans out through :class:`~repro.exec.SweepExecutor` — ``workers=N``
is byte-identical to serial by the executor's contract, and the payload
digest makes that checkable across invocations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from repro.exec import DatasetSpec, RunSpec, SweepExecutor, TimingSpec
from repro.experiments.datasets import Dataset, load_or_build_dataset
from repro.graphgen.profiles import thai_profile

__all__ = ["DEFAULT_KS", "DEFAULT_STRATEGIES", "concurrency_sweep", "sweep_digest"]

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
    timing_spec: TimingSpec | None = None,
    workers: int = 0,
) -> dict:
    """Run the (strategy × K) grid; returns the Fig-5 payload.

    Each cell runs the engine with ``concurrency=K`` fetch slots under
    a fresh clock built from ``timing_spec`` (default: the stock
    :class:`~repro.exec.TimingSpec`).  Cells are independent runs and go
    through :class:`~repro.exec.SweepExecutor`, so ``workers=N`` fans
    them out without changing a byte of the results.
    """
    spec = timing_spec if timing_spec is not None else TimingSpec()
    dataset_spec = DatasetSpec.from_dataset(dataset)
    cells = [(strategy, k) for strategy in strategies for k in ks]
    specs = [
        RunSpec(
            dataset=dataset_spec,
            strategy=strategy,
            max_pages=max_pages,
            timing=spec,
            concurrency=k,
        )
        for strategy, k in cells
    ]
    results = SweepExecutor(workers).run(specs)

    rows = []
    for (strategy, k), result in zip(cells, results):
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
            "bandwidth_bytes_per_s": spec.bandwidth_bytes_per_s,
            "latency_s": spec.latency_s,
            "politeness_interval_s": spec.politeness_interval_s,
        },
        "rows": rows,
    }
    payload["digest_sha256"] = sweep_digest(payload)
    return payload


def sweep_digest(payload: dict) -> str:
    """Canonical sha256 of a sweep payload's deterministic content.

    Hashes the rows (series and summaries included) plus the grid
    parameters — everything except the digest field itself.  Two
    invocations of the same sweep, at any worker count, must agree.
    """
    canonical = json.dumps(
        {key: value for key, value in payload.items() if key != "digest_sha256"},
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"--ks needs comma-separated integers, got {text!r}")
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("--ks needs at least one integer >= 1")
    return ks


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.concurrency",
        description="Fig-5 queue-size sweep across concurrency levels (Thai profile)",
    )
    parser.add_argument("--scale", type=float, default=0.05, help="universe scale factor")
    parser.add_argument(
        "--ks", type=_parse_ks, default=DEFAULT_KS, help="comma-separated concurrency levels"
    )
    parser.add_argument("--max-pages", type=int, default=None, help="page cap per run")
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N", help="sweep worker processes"
    )
    parser.add_argument("--output", default=None, help="write the JSON payload here")
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the sweep twice (second pass serial) and require digest equality",
    )
    args = parser.parse_args(argv)

    dataset = load_or_build_dataset(thai_profile().scaled(args.scale))
    payload = concurrency_sweep(
        dataset, ks=args.ks, max_pages=args.max_pages, workers=args.workers
    )
    if args.check_determinism:
        again = concurrency_sweep(dataset, ks=args.ks, max_pages=args.max_pages, workers=0)
        if again["digest_sha256"] != payload["digest_sha256"]:
            print(
                "determinism check FAILED: "
                f"workers={args.workers} digest {payload['digest_sha256']} != "
                f"serial digest {again['digest_sha256']}",
                file=sys.stderr,
            )
            return 1
        print(f"determinism check ok: {payload['digest_sha256']}")

    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if args.output is not None:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(rendered + "\n")
        print(f"wrote {output}")
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
