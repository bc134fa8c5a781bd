"""Do two sets of runs of the same code agree within the ledger's own bounds?

    python3 benchmarks/ledger/agree.py [--runs 10] [--output AGREEMENT.md]

Runs two interleaved sets (A B A B ...) of ``--runs`` full runs of every
workload on the current checkout; run *i* of either set uses seed
``DEFAULT_SEED + i``, as the acceptance driver varies the seed from run
to run.  For every workload x end-to-end metric it prints both medians and
quartiles, each set's spread (interquartile distance / median), how much
worse B's median is than A's, and the bound.  It exits non-zero when a
median moved by more than the bound or — ``setup_s`` excepted, whose
spread is not gated — a spread exceeds it.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def one_run(workload: str, seed: int) -> dict[str, float]:
    """The end-to-end metric values of one ``run.py`` invocation."""
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(DEFAULT_SECONDS),
            "--trace", "0",
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise SystemExit(f"agree: {workload} seed {seed} failed its checks")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (>= 5)")
    parser.add_argument("--output", help="also write the report here")
    args = parser.parse_args(argv)
    if args.runs < 5:
        parser.error("--runs must be at least 5")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = bench["end_to_end"]
    samples = {
        (side, workload, metric["name"]): []
        for side in "AB"
        for workload in WORKLOADS
        for metric in metrics
    }
    started = time.time()
    for index in range(args.runs):
        for side in "AB":
            for workload in WORKLOADS:
                values = one_run(workload, DEFAULT_SEED + index)
                for name, value in values.items():
                    samples[side, workload, name].append(value)
        print(f"agree: pair {index + 1}/{args.runs} done", file=sys.stderr)

    lines = [
        "# Ledger agreement: two interleaved sets of runs of the same code",
        "",
        f"- runs per set: {args.runs}; seeds {DEFAULT_SEED}..{DEFAULT_SEED + args.runs - 1}; "
        f"`--seconds {DEFAULT_SECONDS:g}`; wall {time.time() - started:.0f} s",
        f"- host: {platform.platform()}, Python {platform.python_version()}",
        "- spread = (q3 - q1) / median of one set, quartiles as `statistics.quantiles(n=4)`;",
        "  worse = how much worse B's median is than A's (negative: better), as a share of A's;",
        "  a row breaches when |worse| > bound, or a spread > bound (`setup_s` spread is not gated).",
        "",
        "| workload | metric | A q1 | A median | A q3 | A spread | B q1 | B median | B q3 "
        "| B spread | worse | bound | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    breaches = 0
    for workload in WORKLOADS:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a_q1, a_med, a_q3 = quartiles(samples["A", workload, name])
            b_q1, b_med, b_q3 = quartiles(samples["B", workload, name])
            a_spread, b_spread = (a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med
            worse = (b_med - a_med) / a_med
            if metric["better"] == "higher":
                worse = -worse
            breach = abs(worse) > bound or (
                name != "setup_s" and max(a_spread, b_spread) > bound
            )
            breaches += breach
            lines.append(
                f"| {workload} | {name} | {a_q1:.5g} | {a_med:.5g} | {a_q3:.5g} | {a_spread:.4f} "
                f"| {b_q1:.5g} | {b_med:.5g} | {b_q3:.5g} | {b_spread:.4f} "
                f"| {worse:+.4f} | {bound:g} | {'BREACH' if breach else 'ok'} |"
            )
    lines += ["", f"breaches: {breaches} of {len(WORKLOADS) * len(metrics)} pairs"]
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
