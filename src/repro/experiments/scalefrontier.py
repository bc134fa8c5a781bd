"""Scale-frontier sweep: out-of-core vs in-memory web spaces.

The tentpole claim of the columnar page store
(:mod:`repro.webspace.store`) is twofold:

1. **Identity** — a budgeted crawl over a store-backed dataset reports
   byte-identically to the same crawl over the in-memory
   :class:`~repro.webspace.crawllog.CrawlLog` backend (same
   :func:`~repro.core.session.report_payload`, compared by sha256).
2. **Footprint** — peak RSS of the store-backed crawl stays flat as the
   web grows, while the in-memory backend grows linearly with page
   count; at 10⁶ pages the store process must hold **≤ 25%** of the
   in-memory backend's extrapolated footprint.

Every measurement point runs in a **subprocess** (``--point`` child
mode) so ``getrusage(RUSAGE_SELF).ru_maxrss`` measures exactly one
backend at one scale, uncontaminated by the driver's own allocations.
Store *builds* are fanned out the same way (``--build`` children):
``ru_maxrss`` of a forked child starts at the parent's resident set, so
a driver that built a 10⁶-page store in-process would hand every later
crawl child a multi-hundred-MB floor.
The in-memory footprint at 10⁶ pages is never measured directly (that
is the web you cannot hold); it is extrapolated by a least-squares
linear fit of the measured in-memory points over ``n_pages``.

CI runs the small smoke (``--scales 1.0``) with the digest-equality
gate; ``benchmarks/bench_scale_frontier.py`` runs the full ladder plus
the million-page point and writes
``benchmarks/results/BENCH_scale_frontier.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

from repro.core.session import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.core.spilling import SpillConfig
from repro.errors import SimulationError
from repro.experiments.sweep import comma_list, emit_payload
from repro.graphgen.profiles import profile_by_name
from repro.urlkit.normalize import clear_url_caches

__all__ = [
    "DEFAULT_SCALES",
    "MILLION_PAGES",
    "MAX_RSS_RATIO",
    "run_build",
    "run_point",
    "scale_frontier_sweep",
]

#: The measured ladder: in-memory points the linear RSS fit runs over.
DEFAULT_SCALES: tuple[float, ...] = (0.25, 0.5, 1.0)

#: Page count of the out-of-core headline point (thai scaled 50/7:
#: 140 000 × 50/7 = 1 000 000 exactly).
MILLION_PAGES = 1_000_000

#: The acceptance bar: store-backed peak RSS at the million-page point,
#: as a fraction of the in-memory backend's extrapolated footprint.
MAX_RSS_RATIO = 0.25


def _report_digest(result) -> str:
    """sha256 of the run's deterministic report payload."""
    canonical = json.dumps(report_payload(result), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def run_point(spec: dict) -> dict:
    """Run one (backend, scale) measurement in *this* process.

    Meant to be the body of a ``--point`` subprocess: peak RSS of the
    current process is the measurement, so the caller must not have
    built any dataset before invoking this.
    """
    profile = profile_by_name(spec["profile"], seed=spec.get("seed"))
    scale = float(spec.get("scale", 1.0))
    if scale != 1.0:
        profile = profile.scaled(scale)

    backend = spec["backend"]
    if backend == "store":
        from repro.experiments.datasets import open_dataset_store

        dataset = open_dataset_store(spec["store_path"])
    elif backend == "memory":
        from repro.experiments.datasets import build_dataset

        dataset = build_dataset(profile, "none")
    else:
        raise SimulationError(f"unknown scale-frontier backend {backend!r}")

    config = SessionConfig.from_json(spec["config"])
    session = CrawlSession(CrawlRequest(strategy=spec["strategy"], dataset=dataset), config)
    # Open first: dataset resolution (recall denominator, seeds) is
    # setup, not crawl throughput.
    session.open()
    # Out-of-core hygiene between batches: drop the store's resident
    # file pages and the bounded URL caches, so peak RSS tracks one
    # batch of work instead of accumulating the whole crawl.  Results
    # are unaffected — both are caches.
    release = getattr(dataset.crawl_log, "release_page_cache", None)
    started = time.perf_counter()
    spill_stats = None
    try:
        while not session.done:
            session.step(2_500)
            if release is not None:
                release()
                clear_url_caches()
        wall_s = time.perf_counter() - started
        result = session.report()
        if isinstance(config.frontier, SpillConfig):
            spill_stats = asdict(session.frontier.stats())
    finally:
        session.close()
    closer = getattr(dataset.crawl_log, "close", None)
    if closer is not None:
        closer()

    return {
        "backend": backend,
        "scale": scale,
        "n_pages": profile.n_pages,
        "pages_crawled": result.pages_crawled,
        "wall_s": round(wall_s, 4),
        "pages_per_s": round(result.pages_crawled / wall_s, 2) if wall_s > 0 else None,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "coverage": round(result.summary.final_coverage, 6),
        "harvest_rate": round(result.summary.final_harvest_rate, 6),
        "digest": _report_digest(result),
        "spill": spill_stats,
    }


def _run_child(flag: str, spec: dict, what: str) -> dict:
    """Fan one child job out to a fresh interpreter and parse its JSON."""
    command = [sys.executable, "-m", "repro.experiments.scalefrontier", flag, json.dumps(spec)]
    completed = subprocess.run(
        command, capture_output=True, text=True, env=os.environ.copy()
    )
    if completed.returncode != 0:
        raise SimulationError(
            f"scale-frontier {what} failed: {completed.stderr.strip()[-2000:]}"
        )
    # The child prints exactly one JSON object on its last stdout line.
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _run_point_subprocess(spec: dict) -> dict:
    return _run_child("--point", spec, f"point {spec['backend']}@{spec.get('scale')}")


def run_build(spec: dict) -> dict:
    """Stream one universe store to disk in *this* process, timed.

    Body of a ``--build`` subprocess: the columnar writer's working set
    (hundreds of MB at 10⁶ pages) must not land in the sweep driver —
    a subprocess forked from a fat driver inherits its resident set as
    the ``ru_maxrss`` floor, which would poison every crawl measurement
    that follows.
    """
    from repro.experiments.datasets import build_dataset_store

    profile = profile_by_name(spec["profile"], seed=spec.get("seed"))
    scale = float(spec.get("scale", 1.0))
    if scale != 1.0:
        profile = profile.scaled(scale)
    path = Path(spec["store_path"])
    started = time.perf_counter()
    build_dataset_store(profile, path, capture_kind="none")
    build_s = time.perf_counter() - started
    size = path.stat().st_size
    return {
        "n_pages": profile.n_pages,
        "build_s": round(build_s, 4),
        "store_bytes": size,
        "pages_per_s": round(profile.n_pages / build_s, 2) if build_s > 0 else None,
    }


def _build_store(profile_name: str, scale: float, path: Path, seed: int | None) -> dict:
    """Stream one universe store to disk in a subprocess, timed."""
    spec = {"profile": profile_name, "scale": scale, "seed": seed, "store_path": str(path)}
    return _run_child("--build", spec, f"build {profile_name}@{scale:g}")


def scale_frontier_sweep(
    scales: tuple[float, ...] = DEFAULT_SCALES,
    max_pages: int = 1500,
    strategy: str = "soft-focused",
    profile: str = "thai",
    seed: int | None = None,
    million: bool = False,
    million_max_pages: int = 50_000,
    spill_limit: int = 50_000,
    workdir: str | Path | None = None,
    progress=None,
) -> dict:
    """The sweep: per-scale backend pairs, optional million-page point.

    Every scale row runs the same budgeted crawl on both backends (each
    in its own subprocess) and requires **digest equality** — the same
    byte-identity bar the golden fixtures hold, applied at scales the
    fixtures never reach.  With ``million=True`` a 10⁶-page universe
    store is built and crawled (store backend only, spilling frontier),
    and the in-memory footprint at 10⁶ pages is extrapolated from the
    measured scale rows to evaluate :data:`MAX_RSS_RATIO`.
    """

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    tmp = None
    if workdir is None:
        tmp = tempfile.TemporaryDirectory(prefix="lswc-scalefrontier-")
        workdir = tmp.name
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    sample_interval = 1_000_000  # one final sample; series stays tiny
    rows = []
    try:
        for scale in scales:
            store_path = workdir / f"{profile}-x{scale:g}.lswc"
            note(f"building {profile} store at scale {scale:g} ...")
            build = _build_store(profile, scale, store_path, seed)
            base = {
                "profile": profile,
                "scale": scale,
                "seed": seed,
                "strategy": strategy,
                "config": SessionConfig(max_pages=max_pages, sample_interval=sample_interval).to_json(),
            }
            note(f"crawling scale {scale:g} on the store backend ...")
            store_point = _run_point_subprocess(
                {**base, "backend": "store", "store_path": str(store_path)}
            )
            note(f"crawling scale {scale:g} on the in-memory backend ...")
            memory_point = _run_point_subprocess({**base, "backend": "memory"})
            digests_equal = store_point["digest"] == memory_point["digest"]
            rows.append(
                {
                    "scale": scale,
                    "n_pages": build["n_pages"],
                    "store_build": build,
                    "store": store_point,
                    "memory": memory_point,
                    "digests_equal": digests_equal,
                }
            )
            store_path.unlink(missing_ok=True)
            if not digests_equal:
                raise SimulationError(
                    f"backend divergence at scale {scale:g}: store digest "
                    f"{store_point['digest']} != memory digest {memory_point['digest']}"
                )

        fit = None
        if len(rows) >= 2:
            # Least-squares RSS(n_pages) over the measured in-memory points.
            xs = [row["n_pages"] for row in rows]
            ys = [row["memory"]["ru_maxrss_kb"] for row in rows]
            n = len(xs)
            mean_x = sum(xs) / n
            mean_y = sum(ys) / n
            denom = sum((x - mean_x) ** 2 for x in xs)
            slope = (
                sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
                if denom > 0
                else 0.0
            )
            intercept = mean_y - slope * mean_x
            fit = {
                "slope_kb_per_page": round(slope, 6),
                "intercept_kb": round(intercept, 2),
                "points": [[x, y] for x, y in zip(xs, ys)],
            }

        million_row = None
        rss_gate = None
        if million:
            if fit is None:
                raise SimulationError(
                    "the million-page point needs >= 2 scale rows to extrapolate "
                    "the in-memory footprint"
                )
            million_scale = MILLION_PAGES / profile_by_name(profile).n_pages
            store_path = workdir / f"{profile}-million.lswc"
            note(f"building the {MILLION_PAGES:,}-page store ...")
            build = _build_store(profile, million_scale, store_path, seed)
            if build["n_pages"] != MILLION_PAGES:
                raise SimulationError(
                    f"million-point scaling produced {build['n_pages']} pages, "
                    f"expected {MILLION_PAGES}"
                )
            note(f"crawling the {MILLION_PAGES:,}-page store ...")
            store_point = _run_point_subprocess(
                {
                    "profile": profile,
                    "scale": million_scale,
                    "seed": seed,
                    "strategy": strategy,
                    "config": SessionConfig(
                        max_pages=million_max_pages,
                        sample_interval=sample_interval,
                        frontier=SpillConfig(memory_limit=spill_limit) if spill_limit else None,
                    ).to_json(),
                    "backend": "store",
                    "store_path": str(store_path),
                }
            )
            store_path.unlink(missing_ok=True)
            extrapolated = fit["intercept_kb"] + fit["slope_kb_per_page"] * MILLION_PAGES
            ratio = store_point["ru_maxrss_kb"] / extrapolated if extrapolated > 0 else None
            million_row = {
                "n_pages": MILLION_PAGES,
                "store_build": build,
                "store": store_point,
            }
            rss_gate = {
                "store_rss_kb": store_point["ru_maxrss_kb"],
                "extrapolated_memory_rss_kb": round(extrapolated, 2),
                "ratio": round(ratio, 4) if ratio is not None else None,
                "max_ratio": MAX_RSS_RATIO,
                "pass": ratio is not None and ratio <= MAX_RSS_RATIO,
            }
    finally:
        if tmp is not None:
            tmp.cleanup()

    payload = {
        "experiment": "scale-frontier",
        "profile": profile,
        "strategy": strategy,
        "max_pages": max_pages,
        "scales": list(scales),
        "rows": rows,
        "memory_fit": fit,
        "million": million_row,
        "rss_gate": rss_gate,
    }
    # The determinism digest covers only the crawls' report digests —
    # wall seconds and RSS vary run to run, the reports must not.
    crawl_digests = {str(row["scale"]): row["store"]["digest"] for row in rows}
    if million_row is not None:
        crawl_digests["million"] = million_row["store"]["digest"]
    payload["digest_sha256"] = hashlib.sha256(
        json.dumps(crawl_digests, sort_keys=True).encode()
    ).hexdigest()
    return payload


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scalefrontier",
        description="Out-of-core vs in-memory crawl backends: identity + footprint sweep",
    )
    parser.add_argument(
        "--point",
        default=None,
        help=argparse.SUPPRESS,  # child mode: JSON spec of one measurement
    )
    parser.add_argument(
        "--build",
        default=None,
        help=argparse.SUPPRESS,  # child mode: JSON spec of one store build
    )
    parser.add_argument(
        "--scales", type=comma_list(float), default=DEFAULT_SCALES,
        help="comma-separated universe scale factors (default 0.25,0.5,1.0)",
    )
    parser.add_argument("--max-pages", type=int, default=1500, help="crawl budget per point")
    parser.add_argument("--strategy", default="soft-focused", help="strategy registry name")
    parser.add_argument("--seed", type=int, default=None, help="override the profile seed")
    parser.add_argument(
        "--million", action="store_true",
        help=f"add the {MILLION_PAGES:,}-page out-of-core point with the RSS gate",
    )
    parser.add_argument(
        "--million-pages", type=int, default=50_000,
        help="crawl budget of the million-page point (default 50000)",
    )
    parser.add_argument(
        "--spill-limit", type=int, default=50_000,
        help="spilling-frontier resident cap for the million-page point",
    )
    parser.add_argument("--workdir", default=None, help="keep store files here (default: temp)")
    parser.add_argument("--output", default=None, help="write the JSON payload here")
    args = parser.parse_args(argv)

    if args.point is not None:
        print(json.dumps(run_point(json.loads(args.point)), sort_keys=True))
        return 0
    if args.build is not None:
        print(json.dumps(run_build(json.loads(args.build)), sort_keys=True))
        return 0

    payload = scale_frontier_sweep(
        scales=args.scales,
        max_pages=args.max_pages,
        strategy=args.strategy,
        seed=args.seed,
        million=args.million,
        million_max_pages=args.million_pages,
        spill_limit=args.spill_limit,
        workdir=args.workdir,
        progress=lambda message: print(message, file=sys.stderr),
    )
    emit_payload(payload, args.output)
    if payload["rss_gate"] is not None and not payload["rss_gate"]["pass"]:
        print(
            f"RSS gate FAILED: store {payload['rss_gate']['store_rss_kb']} KB > "
            f"{MAX_RSS_RATIO:.0%} of extrapolated "
            f"{payload['rss_gate']['extrapolated_memory_rss_kb']} KB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
