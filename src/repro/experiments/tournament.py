"""Strategy tournament: the full zoo on cue-annotated Thai webs.

Every registered ordering — the paper's §3.3 strategies, the combined
capture strategies, and the content+link hybrids that read anchor-text
link context — crawls the *same* captured Thai datasets under the same
page budget, and the summary ranks them on the Fig. 3 axes: final
harvest rate first, final coverage as the tie-breaker.

The web is the standard Thai profile with link-context cues switched on
(:data:`CUE_ANCHOR_PROBABILITY` / :data:`CUE_AROUND_PROBABILITY`): a cue
annotates a link whose *target* is a Thai page with Thai anchor or
surrounding text, which is the signal the context-aware strategies
(``pdd-hybrid``, ``pal-content-link``, ``infospiders``) buy their edge
with.  Context-blind strategies run unchanged on the same datasets — the
cue column changes nothing they can observe — so the comparison is at
strictly equal budget on an identical web.

The grid is strategies × scales × seeds; seeds re-roll the generated
universe (``profile.with_seed``), so a strategy has to win on several
independent webs, not one lucky layout.  Every cell is one
:class:`~repro.exec.RunSpec` on the shared sweep path
(:mod:`repro.experiments.sweep`).

``benchmarks/bench_strategy_tournament.py`` renders and gates the
payload.
"""

from __future__ import annotations

import argparse
import functools
from dataclasses import replace

from repro.core.session import SessionConfig
from repro.exec import DatasetSpec, RunSpec
from repro.experiments.datasets import load_or_build_dataset
from repro.experiments.sweep import comma_list, run_cells, sweep_digest, sweep_main
from repro.graphgen.config import DatasetProfile
from repro.graphgen.profiles import thai_profile

__all__ = [
    "CUE_ANCHOR_PROBABILITY",
    "CUE_AROUND_PROBABILITY",
    "DEFAULT_SEEDS",
    "FULL_ZOO",
    "cued_thai_profile",
    "ranking_summary",
    "tournament_sweep",
]

#: Cue rates for the tournament web.  Anchors cue often (a link to a
#: Thai page usually *says so* in its anchor), surrounding text less so
#: — high enough that textual-cue strategies have signal to read, low
#: enough that cue-blind orderings are not artificially starved.
CUE_ANCHOR_PROBABILITY = 0.7
CUE_AROUND_PROBABILITY = 0.4

#: Every registered strategy, baselines first.  ``limited-distance``
#: and the combined capture strategies run with their registered
#: defaults (n=3); the context-aware family defaults to Thai, matching
#: the tournament web.
FULL_ZOO: tuple[str, ...] = (
    "breadth-first",
    "soft-focused",
    "hard-focused",
    "limited-distance",
    "distilled-soft",
    "backlink-count",
    "hard+limited",
    "soft+limited",
    "pdd-hybrid",
    "pal-content-link",
    "infospiders",
)

#: Universe seeds per (strategy, scale) cell.  Each seed regenerates
#: the web from scratch; two keep the ranking honest about layout luck
#: without doubling CI cost for every extra seed.
DEFAULT_SEEDS: tuple[int, ...] = (20050304, 7)


def cued_thai_profile(scale: float, seed: int | None = None) -> DatasetProfile:
    """The standard Thai profile at ``scale`` with link cues enabled.

    The cue probabilities change the profile fingerprint (a cued
    dataset caches separately from the plain one) but not the generated
    graph, language or charset columns — only the extra ``link_cues``
    column and the anchor text rendered from it.
    """
    profile = thai_profile().scaled(scale)
    if seed is not None:
        profile = profile.with_seed(seed)
    return replace(
        profile,
        name=f"{profile.name}-cued",
        anchor_cue_probability=CUE_ANCHOR_PROBABILITY,
        around_cue_probability=CUE_AROUND_PROBABILITY,
    )


def tournament_sweep(
    strategies: tuple[str, ...] = FULL_ZOO,
    scales: tuple[float, ...] = (0.02,),
    seeds: tuple[int, ...] = DEFAULT_SEEDS,
    max_pages: int | None = 1100,
    workers: int = 0,
) -> dict:
    """Run the (strategy × scale × seed) grid and rank the zoo.

    Datasets are built (or read from the disk cache) driver-side once
    per (scale, seed) so a cold cache pays each capture crawl exactly
    once; in-process cells crawl those live datasets, workers rehydrate
    them from the :class:`~repro.exec.DatasetSpec`.
    """
    dataset_specs: dict[tuple[float, int], DatasetSpec] = {}
    dataset_pages: dict[tuple[float, int], int] = {}
    for scale in scales:
        for seed in seeds:
            dataset = load_or_build_dataset(cued_thai_profile(scale, seed))
            dataset_specs[(scale, seed)] = DatasetSpec.from_dataset(dataset)
            dataset_pages[(scale, seed)] = len(dataset.crawl_log)

    runs = run_cells(
        [(strategy, scale, seed) for strategy in strategies for scale in scales for seed in seeds],
        lambda strategy, scale, seed: RunSpec(
            dataset=dataset_specs[(scale, seed)],
            strategy=strategy,
            config=SessionConfig(max_pages=max_pages),
        ),
        workers,
    )

    rows = []
    for (strategy, scale, seed), result in runs:
        rows.append(
            {
                "strategy": strategy,
                "label": result.strategy,
                "scale": scale,
                "seed": seed,
                "dataset_pages": dataset_pages[(scale, seed)],
                "pages": result.pages_crawled,
                "harvest_rate": round(result.summary.final_harvest_rate, 6),
                "coverage": round(result.summary.final_coverage, 6),
                "frontier_peak": result.frontier_peak,
            }
        )

    payload = {
        "experiment": "strategy-tournament",
        "profile": "thai-cued",
        "anchor_cue_probability": CUE_ANCHOR_PROBABILITY,
        "around_cue_probability": CUE_AROUND_PROBABILITY,
        "strategies": list(strategies),
        "scales": list(scales),
        "seeds": list(seeds),
        "max_pages": max_pages,
        "rows": rows,
        "summary": ranking_summary(rows),
    }
    payload["digest_sha256"] = sweep_digest(payload)
    return payload


def ranking_summary(rows: list[dict]) -> list[dict]:
    """The zoo ranked by mean harvest rate, coverage breaking ties.

    Means are over every (scale, seed) cell of a strategy, so the
    ranking rewards consistency across webs, not a single good draw.
    Rounding happens *before* the sort: two strategies equal to 6
    decimals rank by coverage, not by float noise.
    """
    by_strategy: dict[str, list[dict]] = {}
    for row in rows:
        by_strategy.setdefault(row["strategy"], []).append(row)

    entries = []
    for strategy, cells in by_strategy.items():
        entries.append(
            {
                "strategy": strategy,
                "mean_harvest_rate": round(
                    sum(cell["harvest_rate"] for cell in cells) / len(cells), 6
                ),
                "mean_coverage": round(
                    sum(cell["coverage"] for cell in cells) / len(cells), 6
                ),
                "runs": len(cells),
            }
        )
    entries.sort(
        key=lambda entry: (-entry["mean_harvest_rate"], -entry["mean_coverage"], entry["strategy"])
    )
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.tournament",
        description="Strategy tournament: the full zoo on cue-annotated Thai webs",
    )
    parser.add_argument(
        "--strategies",
        type=comma_list(str),
        default=FULL_ZOO,
        help="comma-separated strategy registry names (default: the full zoo)",
    )
    parser.add_argument(
        "--scales", type=comma_list(float), default=(0.02,), help="universe scale factors"
    )
    parser.add_argument(
        "--seeds", type=comma_list(int), default=DEFAULT_SEEDS, help="universe seeds per cell"
    )
    parser.add_argument("--max-pages", type=int, default=1100, help="page cap per run")
    return sweep_main(
        parser,
        lambda args: functools.partial(
            tournament_sweep,
            strategies=args.strategies,
            scales=args.scales,
            seeds=args.seeds,
            max_pages=args.max_pages,
        ),
        argv,
    )


if __name__ == "__main__":
    raise SystemExit(_main())
