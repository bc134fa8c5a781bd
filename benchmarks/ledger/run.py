"""Perf ledger: one command, every metric by name, outputs checked.

    python3 benchmarks/ledger/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/ledger/run.py --smoke            # all four, small, < 20 s

One run of one workload is: a set-up child (builds the web into a store
file, several times, timed), then a measuring child (warm-up pass, then
the workload's fixed number of identical passes, scaled by
``--seconds``; or, with ``--trace 1``, one untraced and one traced
pass).  Both are fresh interpreters with
``PYTHONHASHSEED=0``; every file goes to a temporary directory of this
run's own, inside the checkout (the acceptance driver allows writes
nowhere else), that is removed on exit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The exit code is non-zero when any check failed.
See README.md in this directory for the protocol and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A child that has not finished by then is killed (the contract allows 180 s a run).
CHILD_TIMEOUT_S = 170

#: Canary drift beyond this share earns a warning line (never a failure).
CANARY_TOLERANCE = 0.10


def run_child(phase: str, options: dict) -> dict:
    """Run one phase of ``child.py`` in a fresh interpreter; its JSON result."""
    command = [sys.executable, str(HERE / "child.py"), phase]
    for key, value in options.items():
        if value is not None:
            command += [f"--{key}", str(value)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"ledger: {phase} child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, args: argparse.Namespace, tmp: Path, declared: dict) -> dict:
    """One run of one workload: the result object plus what the checks need."""
    store = tmp / f"{name}.store"
    common = {"workload": name, "seed": args.seed, "smoke": int(args.smoke), "store": store}
    setup = run_child("setup", common)
    measured = run_child(
        "measure",
        {
            **common,
            "seconds": 0 if args.smoke else args.seconds,
            "trace": args.trace,
            "spool": tmp / f"{name}.spool",
            "spans-out": args.trace_out,
        },
    )

    setup_s = statistics.median(setup["build_s"])
    if args.trace:
        values = dict(measured["layer_metrics"])
        values["setup.build_pages_per_s"] = measured["page_count"] / setup_s
        values["store.file_bytes"] = setup["file_bytes"]
        wanted = declared["per_layer"]
    else:
        values = {
            "pages_per_s": measured["pages_per_s"],
            "step_p50_ms": measured["step_p50_ms"],
            "peak_rss_mb": measured["peak_rss_mb"],
            "setup_s": setup_s,
            "setup_peak_rss_mb": setup["peak_rss_mb"],
            "store_bytes_per_page": setup["file_bytes"] / measured["page_count"],
        }
        wanted = declared["end_to_end"]
    failures = list(measured["failures"])
    failed = measured["failed"]
    if set(values) != set(wanted):
        failed += 1
        failures.append(
            f"metric names differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}"
        )
    metrics = {key: {"value": values[key], "unit": wanted[key]} for key in wanted if key in values}

    for key, metric in metrics.items():
        value = metric["value"]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}  {key}  {shown}  {metric['unit']}")
    # step_p95_ms is printed but not gated: see README, "Where this differs".
    for key in (
        "step_p95_ms", "p95_samples_beyond", "step_ops", "ops_per_pass", "passes", "pass_wall_s",
        "dataset_open_s", "distinct_urls",
    ):
        if key in measured:
            print(f"{name}  run.{key}  {measured[key]:.6g}")
    print(f"{name}  run.setup_builds  {len(setup['build_s'])}")
    print(f"{name}  run.pages_per_pass  {measured['pages']}")
    print(f"{name}  run.report_digest  {measured['digest']}")
    print(f"{name}  ops_attempted  {measured['attempted']}")
    print(f"{name}  ops_failed  {failed}")
    before, after = measured["canary_ms_before"], measured["canary_ms_after"]
    print(f"{name}  host.canary_ms_before  {before:.6g}  ms")
    print(f"{name}  host.canary_ms_after  {after:.6g}  ms")
    if abs(after - before) > CANARY_TOLERANCE * before:
        print(f"{name}  warning: host speed moved {100 * (after - before) / before:+.1f} % during the run")
    for target in measured.get("missing_targets", ()):
        print(f"{name}  warning: trace target {target} not found; its metrics read 0")
    for failure in failures:
        print(f"{name}  FAILED: {failure}")
    return {
        "digest": measured["digest"],
        "result": {
            "correct": failed == 0,
            "attempted": measured["attempted"],
            "failed": failed,
            "metrics": metrics,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=(
            "picks the crawl's start: n_seeds = 4 + seed mod 13 portal pages "
            "(the universe is fixed, so seeds congruent mod 13 give the same inputs)"
        ),
    )
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--trace-out", help="with --workload and --trace: keep the span JSON here")
    parser.add_argument("--smoke", action="store_true", help="small universes, one pass")
    args = parser.parse_args(argv)
    if args.trace_out and not (args.workload and args.trace):
        parser.error("--trace-out keeps one workload's spans: give --workload and --trace 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        section: {metric["name"]: metric["unit"] for metric in bench[section]}
        for section in ("end_to_end", "per_layer")
    }
    names = [args.workload] if args.workload else list(WORKLOADS)

    with tempfile.TemporaryDirectory(prefix=".ledger_tmp-", dir=ROOT) as tmp:
        runs = {name: run_workload(name, args, Path(tmp), declared) for name in names}

    # The two soft workloads crawl one web with one strategy: same report.
    pair = [runs.get("mem-soft-round"), runs.get("store-soft-beyond-cache")]
    if all(pair) and pair[0]["digest"] != pair[1]["digest"]:
        print("FAILED: mem-soft-round and store-soft-beyond-cache report digests differ")
        for run in pair:
            run["result"]["correct"] = False
            run["result"]["failed"] += 1
    for name in names:
        print(json.dumps(runs[name]["result"]))
    return 0 if all(run["result"]["correct"] for run in runs.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
