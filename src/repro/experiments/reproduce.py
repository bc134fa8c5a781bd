"""One-command reproduction of the paper's full evaluation.

``reproduce_all()`` (CLI: ``lswc-sim reproduce``) regenerates Tables 1
and 3 and Figures 3-7, writing for each:

- the plain-text checkpoint tables (what the benchmarks print),
- JSON series,
- gnuplot .dat/.gp files (the paper's own plotting toolchain),

plus a top-level ``REPORT.md`` tying everything together.  This is the
artifact a reviewer would ask for: every number in one directory, from
one invocation, at a chosen scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments import figures as figures_module
from repro.experiments.datasets import Dataset, load_or_build_dataset
from repro.experiments.export import export_figure_gnuplot, export_figure_json
from repro.experiments.figures import FigureResult
from repro.experiments.report import render_figure, render_table
from repro.experiments.tables import table1, table2, table3
from repro.graphgen.profiles import japanese_profile, thai_profile


@dataclass(frozen=True, slots=True)
class ReproductionArtifacts:
    """Where everything landed."""

    output_dir: Path
    report_path: Path
    figures: tuple[str, ...]

    def __str__(self) -> str:
        return f"reproduction written to {self.output_dir} (report: {self.report_path.name})"


def _figure_producers() -> list[tuple[str, Callable[[Dataset], FigureResult], str]]:
    """(figure id, producer, dataset name) for every paper figure."""
    return [
        ("3", figures_module.figure3, "thai"),
        ("4", figures_module.figure4, "japanese"),
        ("5", figures_module.figure5, "thai"),
        ("6", figures_module.figure6, "thai"),
        ("7", figures_module.figure7, "thai"),
    ]


def reproduce_all(
    output_dir: str | Path,
    scale: float = 0.25,
    cache: bool = True,
    progress: Callable[[str], None] | None = None,
    workers: int = 0,
) -> ReproductionArtifacts:
    """Regenerate every table and figure into ``output_dir``.

    Args:
        output_dir: destination directory (created if missing).
        scale: universe scale factor relative to the calibrated profiles.
        cache: reuse/populate the on-disk dataset cache.
        progress: optional callback receiving one-line status messages.
        workers: fan each figure's strategy sweep out to this many
            worker processes (0 = serial; outputs are identical).
    """
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    say = progress or (lambda _message: None)

    cache_dir = "default" if cache else None
    say(f"building datasets at scale {scale} ...")
    datasets = {
        "thai": load_or_build_dataset(thai_profile().scaled(scale), cache_dir=cache_dir),
        "japanese": load_or_build_dataset(japanese_profile().scaled(scale), cache_dir=cache_dir),
    }

    sections: list[str] = []

    say("tables 1-3 ...")
    tables_text = (
        render_table(table1(), title="Table 1: Languages and their charsets")
        + "\n"
        + render_table(table2(), title="Table 2: Simple strategy semantics")
        + "\n"
        + render_table(
            table3(list(datasets.values())),
            title="Table 3: Dataset characteristics (OK pages)",
        )
    )
    (output_dir / "tables.txt").write_text(tables_text)
    sections.append("## Tables\n\n```\n" + tables_text + "```\n")

    produced: list[str] = []
    for figure_id, producer, dataset_name in _figure_producers():
        say(f"figure {figure_id} ({dataset_name} dataset) ...")
        figure = producer(datasets[dataset_name], workers=workers)
        text = render_figure(figure)
        (output_dir / f"fig{figure_id}.txt").write_text(text)
        export_figure_json(figure, output_dir / f"fig{figure_id}.json")
        export_figure_gnuplot(figure, output_dir / "gnuplot")
        sections.append(f"## Figure {figure_id}\n\n```\n{text}```\n")
        produced.append(figure_id)

    report_path = output_dir / "REPORT.md"
    header = (
        "# Reproduction report — Simulation Study of Language Specific Web Crawling\n\n"
        f"Scale factor: {scale} (Thai universe "
        f"{datasets['thai'].profile.n_pages} URLs, Japanese "
        f"{datasets['japanese'].profile.n_pages} URLs).\n\n"
        "Per-figure gnuplot data lives under `gnuplot/`; JSON series next\n"
        "to each figure's text rendering. See EXPERIMENTS.md in the\n"
        "repository for the paper-vs-measured comparison.\n\n"
    )
    report_path.write_text(header + "\n".join(sections))
    say(f"done: {report_path}")

    return ReproductionArtifacts(
        output_dir=output_dir,
        report_path=report_path,
        figures=tuple(produced),
    )


def _main(argv: list[str] | None = None) -> int:
    """``python -m repro.experiments.reproduce`` entry point.

    Besides the full reproduction, this hosts the golden-trace fixture
    regeneration (``--regen-golden``) so the one sanctioned way to move
    the differential gate is an explicit, greppable command — see
    :mod:`repro.experiments.golden` and docs/architecture.md.
    """
    import argparse

    from repro.experiments.sweep import add_workers_flag

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.reproduce",
        description="Reproduce the paper's tables and figures, or regenerate golden traces.",
    )
    parser.add_argument(
        "--regen-golden",
        nargs="?",
        const="__default__",
        default=None,
        metavar="DIR",
        help=(
            "regenerate the golden crawl-trace fixtures (default directory: "
            "tests/golden/fixtures) instead of running the reproduction"
        ),
    )
    parser.add_argument(
        "--output-dir", default="reproduction", help="reproduction output directory"
    )
    parser.add_argument(
        "--scale", type=float, default=0.25, help="universe scale factor"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="do not use the on-disk dataset cache"
    )
    add_workers_flag(parser)
    args = parser.parse_args(argv)

    if args.regen_golden is not None:
        from repro.experiments.golden import (
            GOLDEN_FIXTURE_DIR,
            golden_dataset,
            write_cued_traces,
            write_golden_traces,
            write_sched_traces,
        )

        directory = (
            GOLDEN_FIXTURE_DIR if args.regen_golden == "__default__" else Path(args.regen_golden)
        )
        dataset = golden_dataset()
        write_golden_traces(directory, dataset=dataset, progress=print)
        write_sched_traces(directory / "sched", dataset=dataset, progress=print)
        write_cued_traces(directory / "cued", progress=print)
        return 0

    artifacts = reproduce_all(
        args.output_dir,
        scale=args.scale,
        cache=not args.no_cache,
        progress=print,
        workers=args.workers,
    )
    print(artifacts)
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
