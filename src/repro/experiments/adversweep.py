"""Adversarial survival matrix: strategies × scenarios × seeds, twice.

Every cell of the grid crawls the same golden-style web through an
:class:`~repro.adversary.AdversarialWebSpace` — once with engine
defenses off (the degradation baseline) and once with the
:meth:`~repro.adversary.DefenseConfig.standard` preset — and the
summary compares both against the clean crawl.  The headline number per
(strategy, scenario) is the **recovery ratio**::

    gap       = clean_coverage - off_coverage        # what the adversary cost
    recovered = on_coverage    - off_coverage        # what defenses won back
    ratio     = recovered / gap

Coverage (explicit recall) is the survival metric, not harvest rate:
session-alias fetches keep the canonical page's record, so harvest
barely moves under an alias attack while coverage collapses — the
alias URL earns no recall credit.  Defenses can push the ratio above
1.0: the consecutive-irrelevant host budget also stops *honest* hosts
that merely waste fetches, so a defended crawl can beat the clean one.

``benchmarks/bench_adversarial_survival.py`` renders and gates the
payload.  Every cell is one :class:`~repro.exec.RunSpec` on the shared
sweep path (:mod:`repro.experiments.sweep`).
"""

from __future__ import annotations

import argparse
import functools

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.core.session import SessionConfig
from repro.errors import ConfigError
from repro.exec import DatasetSpec, RunSpec
from repro.experiments.datasets import Dataset, load_or_build_dataset
from repro.experiments.sweep import comma_list, run_cells, sweep_digest, sweep_main
from repro.graphgen.profiles import thai_profile

__all__ = [
    "DEFAULT_SEEDS",
    "DEFAULT_STRATEGIES",
    "SCENARIOS",
    "adversarial_sweep",
    "recovery_summary",
]

#: The adversarial web of each named scenario.  Rates are tuned to the
#: golden-scale Thai web so every scenario produces a *visible* coverage
#: dent within the golden page cap — an adversary that does not hurt
#: cannot demonstrate a defense.
SCENARIOS: dict[str, AdversaryProfile] = {
    "clean": AdversaryProfile(),
    "traps": AdversaryProfile(trap_host_rate=0.3, trap_fanout=4),
    "redirects": AdversaryProfile(redirect_rate=0.3, redirect_hops=4, redirect_loop_rate=0.3),
    "soft404": AdversaryProfile(soft404_rate=0.8, soft404_fanout=3),
    "aliases": AdversaryProfile(alias_host_rate=0.3),
    "mislabel": AdversaryProfile(mislabel_rate=0.3),
    "combined": AdversaryProfile(
        trap_host_rate=0.2,
        trap_fanout=3,
        redirect_rate=0.15,
        redirect_hops=4,
        redirect_loop_rate=0.3,
        soft404_rate=0.5,
        alias_host_rate=0.2,
        mislabel_rate=0.15,
    ),
}

#: The simple strategies plus the paper's combined best — the pair the
#: survival gate holds to the half-gap bar, plus one harder case.
DEFAULT_STRATEGIES: tuple[str, ...] = ("breadth-first", "soft-focused", "hard-focused")

#: Adversary seeds averaged per cell: two seeds keep the matrix honest
#: about seed-robustness without doubling CI cost for every extra seed.
DEFAULT_SEEDS: tuple[int, ...] = (7, 11)


def adversarial_sweep(
    dataset: Dataset,
    strategies: tuple[str, ...] = DEFAULT_STRATEGIES,
    scenarios: tuple[str, ...] = tuple(SCENARIOS),
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    max_pages: int | None = None,
    workers: int = 0,
) -> dict:
    """Run the (strategy × scenario × seed × defenses) grid.

    The clean scenario runs with no adversary wrapper at all (the true
    baseline, one run per strategy per defense arm — seeds only vary
    adversary draws, so clean cells are seed-invariant and run once).
    """
    unknown = [name for name in scenarios if name not in SCENARIOS]
    if unknown:
        raise ConfigError(f"unknown adversweep scenarios: {unknown}; known: {sorted(SCENARIOS)}")

    dataset_spec = DatasetSpec.from_dataset(dataset)
    standard = DefenseConfig.standard()
    cells = [
        (strategy, scenario, seed, defended)
        for strategy in strategies
        for scenario in scenarios
        for seed in ((seeds[0],) if scenario == "clean" else seeds)
        for defended in (False, True)
    ]
    runs = run_cells(
        cells,
        lambda strategy, scenario, seed, defended: RunSpec(
            dataset=dataset_spec,
            strategy=strategy,
            config=SessionConfig(
                max_pages=max_pages,
                adversary=None
                if scenario == "clean"
                else AdversaryModel(SCENARIOS[scenario], seed=seed),
                defenses=standard if defended else None,
            ),
        ),
        workers,
    )

    rows = []
    for (strategy, scenario, seed, defended), result in runs:
        adversary = result.adversary or {}
        rows.append(
            {
                "strategy": result.strategy,
                "scenario": scenario,
                "seed": seed,
                "defended": defended,
                "pages": result.pages_crawled,
                "harvest_rate": round(result.summary.final_harvest_rate, 6),
                "coverage": round(result.summary.final_coverage, 6),
                "injected": adversary.get("injected", {}),
                "defense_stats": adversary.get("defense_stats", {}),
                "redirect_hops": adversary.get("redirect_hops", 0),
                "redirect_aborts": adversary.get("redirect_aborts", 0),
            }
        )

    payload = {
        "experiment": "adversarial-survival",
        "dataset": dataset.name,
        "pages_in_dataset": len(dataset.crawl_log),
        "max_pages": max_pages,
        "strategies": list(strategies),
        "scenarios": list(scenarios),
        "seeds": list(seeds),
        "defenses": standard.to_json(),
        "rows": rows,
        "summary": recovery_summary(rows),
    }
    payload["digest_sha256"] = sweep_digest(payload)
    return payload


def recovery_summary(rows: list[dict]) -> list[dict]:
    """Per (strategy, scenario) recovery ratios, seed-averaged.

    Clean rows anchor the baseline; adversarial scenarios without a
    clean sibling in the same row set are skipped (a partial sweep can
    still serialise, it just carries no summary for those cells).
    """

    def mean_coverage(predicate) -> float | None:
        values = [row["coverage"] for row in rows if predicate(row)]
        if not values:
            return None
        return sum(values) / len(values)

    strategies = list(dict.fromkeys(row["strategy"] for row in rows))
    scenarios = list(dict.fromkeys(row["scenario"] for row in rows))
    summary = []
    for strategy in strategies:
        clean = mean_coverage(
            lambda r: r["strategy"] == strategy
            and r["scenario"] == "clean"
            and not r["defended"]
        )
        for scenario in scenarios:
            if scenario == "clean" or clean is None:
                continue
            off = mean_coverage(
                lambda r: r["strategy"] == strategy
                and r["scenario"] == scenario
                and not r["defended"]
            )
            on = mean_coverage(
                lambda r: r["strategy"] == strategy
                and r["scenario"] == scenario
                and r["defended"]
            )
            if off is None or on is None:
                continue
            gap = clean - off
            recovered = on - off
            summary.append(
                {
                    "strategy": strategy,
                    "scenario": scenario,
                    "clean_coverage": round(clean, 6),
                    "off_coverage": round(off, 6),
                    "on_coverage": round(on, 6),
                    "gap": round(gap, 6),
                    "recovered": round(recovered, 6),
                    "recovery_ratio": round(recovered / gap, 4) if gap > 1e-9 else None,
                }
            )
    return summary


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.adversweep",
        description="Adversarial survival matrix: defenses on/off per scenario (Thai profile)",
    )
    parser.add_argument("--scale", type=float, default=0.02, help="universe scale factor")
    parser.add_argument(
        "--strategies",
        type=comma_list(str),
        default=DEFAULT_STRATEGIES,
        help="comma-separated strategy registry names",
    )
    parser.add_argument(
        "--scenarios",
        type=comma_list(str, known=SCENARIOS),
        default=tuple(SCENARIOS),
        help=f"comma-separated scenario names (known: {', '.join(SCENARIOS)})",
    )
    parser.add_argument(
        "--seeds", type=comma_list(int), default=DEFAULT_SEEDS, help="adversary seeds per cell"
    )
    parser.add_argument("--max-pages", type=int, default=1100, help="page cap per run")
    return sweep_main(
        parser,
        lambda args: functools.partial(
            adversarial_sweep,
            load_or_build_dataset(thai_profile().scaled(args.scale)),
            strategies=args.strategies,
            scenarios=args.scenarios,
            seeds=args.seeds,
            max_pages=args.max_pages,
        ),
        argv,
    )


if __name__ == "__main__":
    raise SystemExit(_main())
