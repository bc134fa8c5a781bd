"""Fault sweep: crawl quality degradation versus failure rate.

The paper's evaluation assumes a perfectly reliable web; a national-scale
archiving crawl does not get one.  This experiment measures how each
strategy's headline metrics — harvest rate and coverage — degrade as the
simulated web gets less reliable, with the resilient fetch pipeline
(retry, circuit breaking, capped requeue) doing its best against each
fault level.

One sweep point is one ``(strategy, fault_rate)`` run.  ``fault_rate``
parameterises a :class:`~repro.faults.FaultProfile` where the transient
error rate equals the sweep rate and timeouts/truncations run at half of
it — a mix that exercises all three recovery layers.  Fault decisions
are seeded, so the whole sweep is reproducible.

Every point is one :class:`~repro.exec.RunSpec` on the shared sweep
path (:mod:`repro.experiments.sweep`); :func:`faultsweep_payload` is the
machine-readable artifact, one row per point.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.core.session import SessionConfig
from repro.exec import DatasetSpec
from repro.experiments.datasets import Dataset, load_or_build_dataset
from repro.experiments.sweep import (
    comma_list,
    run_cells,
    strategy_spec,
    sweep_digest,
    sweep_main,
)
from repro.faults import FaultModel, FaultProfile
from repro.graphgen.profiles import profile_by_name

DEFAULT_RATES = (0.0, 0.05, 0.1, 0.2, 0.4)

#: The paper's strategy set as ``(registry name, params)`` pairs.
DEFAULT_STRATEGY_SPECS = (
    ("breadth-first", {}),
    ("hard-focused", {}),
    ("soft-focused", {}),
    ("limited-distance", {"n": 2}),
)


def profile_for_rate(rate: float) -> FaultProfile:
    """The sweep's fault mix at one sweep rate.

    Transient errors at the full rate, timeouts and truncations at half:
    retries recover most transients, timeouts burn whole fetch rounds,
    truncations degrade pages to irrelevant — so the sweep stresses
    recovery, accounting and classification at once.
    """
    return FaultProfile(
        transient_error_rate=rate,
        timeout_rate=rate / 2,
        truncation_rate=rate / 2,
    )


@dataclass(frozen=True, slots=True)
class FaultSweepPoint:
    """One strategy's outcome under one fault rate."""

    strategy: str
    fault_rate: float
    pages_crawled: int
    harvest_rate: float
    coverage: float
    fetches_failed: int
    retries: int
    requeued: int
    dropped: int
    faults_injected: int

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "fault_rate": self.fault_rate,
            "pages_crawled": self.pages_crawled,
            "harvest_rate": round(self.harvest_rate, 4),
            "coverage": round(self.coverage, 4),
            "fetches_failed": self.fetches_failed,
            "retries": self.retries,
            "requeued": self.requeued,
            "dropped": self.dropped,
            "faults_injected": self.faults_injected,
        }


def fault_sweep(
    dataset: Dataset,
    rates: tuple[float, ...] = DEFAULT_RATES,
    strategies: tuple[str | tuple[str, dict], ...] = DEFAULT_STRATEGY_SPECS,
    max_pages: int | None = None,
    fault_seed: int = 0,
    workers: int = 0,
) -> list[FaultSweepPoint]:
    """Measure every strategy at every fault rate.

    ``strategies`` are registry names or ``(name, params)`` pairs.  The
    same ``fault_seed`` is used at every sweep point, so two strategies
    at the same rate face the *same* unreliable web — the per-URL fault
    decisions agree wherever their crawls overlap.
    """
    dataset_spec = DatasetSpec.from_dataset(dataset)
    runs = run_cells(
        [(rate, strategy) for rate in rates for strategy in strategies],
        lambda rate, strategy: strategy_spec(
            dataset_spec,
            strategy,
            config=SessionConfig(
                max_pages=max_pages,
                faults=FaultModel(profile_for_rate(rate), seed=fault_seed) if rate > 0 else None,
            ),
        ),
        workers,
    )
    points = []
    for (rate, _), result in runs:
        resilience = result.resilience or {}
        points.append(
            FaultSweepPoint(
                strategy=result.strategy,
                fault_rate=rate,
                pages_crawled=result.pages_crawled,
                harvest_rate=result.final_harvest_rate,
                coverage=result.final_coverage,
                fetches_failed=resilience.get("fetches_failed", 0),
                retries=resilience.get("retries", 0),
                requeued=resilience.get("requeued", 0),
                dropped=resilience.get("dropped", 0),
                faults_injected=sum(resilience.get("faults_injected", {}).values()),
            )
        )
    return points


def faultsweep_payload(dataset: Dataset, points: list[FaultSweepPoint]) -> dict:
    """The sweep's JSON artifact: one row per point, plus its digest."""
    payload = {
        "experiment": "faultsweep",
        "dataset": dataset.name,
        "dataset_pages": len(dataset.crawl_log),
        "points": [point.to_dict() for point in points],
    }
    payload["digest_sha256"] = sweep_digest(payload)
    return payload


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.faultsweep",
        description="Harvest/coverage degradation vs fault rate, per strategy",
    )
    parser.add_argument("--profile", default="thai", choices=["thai", "japanese", "korean"])
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument(
        "--rates",
        type=comma_list(float, minimum=0.0, maximum=1.0),
        default=DEFAULT_RATES,
        help="comma-separated fault rates in [0, 1]",
    )
    parser.add_argument("--max-pages", type=int, default=None)
    parser.add_argument("--fault-seed", type=int, default=0)
    parser.add_argument("--no-cache", action="store_true")

    def sweep(args: argparse.Namespace):
        profile = profile_by_name(args.profile)
        if args.scale != 1.0:
            profile = profile.scaled(args.scale)
        dataset = load_or_build_dataset(profile, cache_dir=None if args.no_cache else "default")
        return lambda workers: faultsweep_payload(
            dataset,
            fault_sweep(
                dataset,
                rates=args.rates,
                max_pages=args.max_pages,
                fault_seed=args.fault_seed,
                workers=workers,
            ),
        )

    return sweep_main(parser, sweep, argv)


if __name__ == "__main__":
    raise SystemExit(main())
