"""The two fresh-interpreter phases of one ledger run.

``run.py`` starts this file twice per run, each time in a new
interpreter with ``PYTHONHASHSEED=0``:

- ``setup``: one untimed and then the workload's fixed number of timed
  ``build_dataset_store(profile, path, capture_kind="none")`` calls, so
  ``setup_peak_rss_mb`` sees the generator and nothing of the crawl;
- ``measure``: open (or materialise) the dataset, one warm-up pass, then
  either the workload's fixed number of identical timed passes, or —
  with ``--trace 1`` — one untraced and one traced pass.

Each phase prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time

from workloads import (
    MIN_STEP_OPS,
    WORKLOADS,
    CrawlWorkload,
    Recorder,
    ServeWorkload,
    build_profile,
    digest_number,
    pass_count,
    sizing,
    url_counting_hook,
)

#: Store sections read per request with ``os.pread``, never held resident.
_ARENA_SECTIONS = ("link_arena", "url_arena", "link_cues")


def canary_ms() -> float:
    """A fixed pure-Python kernel (~200 ms on the sizing box): host speed now.

    Small cached ints only, so the allocator's state after a crawl does
    not show up as a change in host speed.
    """
    started = time.perf_counter()
    value = 0
    for _ in itertools.repeat(None, 11_000_000):
        value = (value + 7) & 127
    return 1000.0 * (time.perf_counter() - started)


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_nearest_rank(values: list[float], fraction: float) -> tuple[float, int]:
    """The nearest-rank percentile and how many samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(fraction * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# -- set-up -------------------------------------------------------------


def phase_setup(args: argparse.Namespace) -> dict:
    from repro.experiments.datasets import build_dataset_store

    profile = build_profile(args.workload, args.smoke, args.seed)
    # Untimed: pays the imports and leaves the page cache as later builds find it.
    build_dataset_store(profile, args.store, capture_kind="none")
    build_s: list[float] = []
    for _ in range(sizing(args.workload, args.smoke)["builds"]):
        started = time.perf_counter()
        build_dataset_store(profile, args.store, capture_kind="none")
        build_s.append(time.perf_counter() - started)
    return {
        "build_s": build_s,
        "peak_rss_mb": peak_rss_mb(),
        "file_bytes": os.path.getsize(args.store),
    }


# -- measure ------------------------------------------------------------


def open_dataset(name: str, store_path: str):
    """The workload's dataset plus what opening it cost.

    Memory workloads materialise the store file with one sequential scan
    and close it, so they crawl the same web the store workloads do.
    """
    from repro import CrawlLog
    from repro.experiments.datasets import open_dataset_store

    started = time.perf_counter()
    dataset = open_dataset_store(store_path)
    store_open_s = time.perf_counter() - started
    store = dataset.crawl_log
    sections = store.section_sizes()
    info = {
        "page_count": store.page_count,
        "store_open_s": store_open_s,
        "index_bytes": sum(
            size for section, size in sections.items() if section not in _ARENA_SECTIONS
        ),
        "scan_s": 0.0,
    }
    if WORKLOADS[name]["backend"] == "memory":
        started = time.perf_counter()
        log = CrawlLog(iter(store))
        info["scan_s"] = time.perf_counter() - started
        store.close()
        dataset = dataclasses.replace(dataset, crawl_log=log)
    elif WORKLOADS[name]["kind"] == "serve":
        store.close()  # the handler opens (and caches) its own
    info["dataset_open_s"] = store_open_s + info["scan_s"]
    return dataset, info


def run_pass(workload, rec: Recorder, outcomes: list, prime: bool = True) -> float:
    """One pass; returns its wall time as the sum of its operations."""
    if prime:
        workload.prime()
    gc.collect()
    rec.begin_pass()
    outcomes.append(workload.run_pass(rec))
    return sum(seconds for _kind, seconds in rec.passes[-1])


def warm_up(workload, rec: Recorder, outcomes: list, args) -> int | None:
    """The discarded first pass: caches fill, lazy set-up finishes.

    A workload whose sizing names ``min_distinct_urls`` also counts the
    URLs this pass touches (with an engine hook the timed passes do not
    carry) and fails the run when they are too few; the count is returned.
    """
    floor = sizing(args.workload, args.smoke).get("min_distinct_urls")
    if floor is None:
        run_pass(workload, rec, outcomes)
        return None
    touched: set[str] = set()
    workload.hooks = (url_counting_hook(touched),)
    run_pass(workload, rec, outcomes)
    workload.hooks = ()
    rec.check(
        len(touched) >= floor,
        f"the crawl touched {len(touched)} distinct URLs, under {floor}: "
        "the store's URL cache is not evicting",
    )
    return len(touched)


def timed_metrics(rec: Recorder, outcomes: list) -> dict:
    """Per-operation best-of-passes over the measured passes (the first is warm-up).

    Host noise only ever adds time, so the fastest of the identical
    passes is the estimate of what operation *j* costs; whatever the
    program does at step *j* of every pass is in all of them and stays.
    The number of passes is fixed (``pass_count``), so the minimum is
    taken over as many samples whatever the code's speed.  AGREEMENT.md
    has the A/B against the per-operation median on the same passes.
    """
    measured = rec.passes[1:]
    kinds = [kind for kind, _seconds in measured[0]]
    for index, one_pass in enumerate(measured):
        rec.check(
            [kind for kind, _seconds in one_pass] == kinds,
            f"pass {index + 1} ran a different operation script",
        )
    per_op = [min(one_pass[j][1] for one_pass in measured) for j in range(len(kinds))]
    steps = [seconds for kind, seconds in zip(kinds, per_op) if kind == "step"]
    p95, beyond = percentile_nearest_rank(steps, 0.95)
    rec.check(
        len(steps) >= MIN_STEP_OPS,
        f"only {len(steps)} step operations: p95 needs {MIN_STEP_OPS}",
    )
    return {
        "passes": len(measured),
        "ops_per_pass": len(kinds),
        "step_ops": len(steps),
        "p95_samples_beyond": beyond,
        "pass_wall_s": statistics.median(
            sum(seconds for _kind, seconds in one_pass) for one_pass in measured
        ),
        "pages_per_s": outcomes[-1].pages / sum(per_op),
        "step_p50_ms": 1000.0 * statistics.median(steps),
        "step_p95_ms": 1000.0 * p95,
    }


def traced_metrics(workload, rec: Recorder, outcomes: list, info: dict, args) -> dict:
    """One untraced pass, then one traced pass folded into per-layer metrics."""
    from tracer import Tracer, layer_metrics
    from repro.urlkit.normalize import url_cache_sizes

    untraced_wall_s = run_pass(workload, rec, outcomes)
    previous_manager_stats = outcomes[-1].manager_stats

    workload.prime()  # before the wrappers go in: the trace holds the pass alone
    tracer = Tracer()
    tracer.install()
    hook = tracer.stage_hook()
    if isinstance(workload, ServeWorkload):
        tracer.hook_wire_configs(hook)
        workload.encode = tracer.traced(json.dumps, "wire.encode")
        workload.decode = tracer.traced(json.loads, "wire.decode")
    else:
        workload.hooks = (hook,)
    rec.tracer = tracer
    traced_wall_s = run_pass(workload, rec, outcomes, prime=False)
    rec.tracer = None

    metrics = layer_metrics(
        tracer, traced_wall_s, untraced_wall_s, outcomes[-1], previous_manager_stats
    )
    url_tables = url_cache_sizes()
    metrics.update(
        {
            "store.open_ms": 1000.0 * info["store_open_s"],
            "store.scan_pages_per_s": (
                info["page_count"] / info["scan_s"] if info["scan_s"] else 0.0
            ),
            "store.index_bytes_per_page": info["index_bytes"] / info["page_count"],
            "dataset.open_s": info["dataset_open_s"],
            "urlkit.intern_size": url_tables["intern"],
            "urlkit.normalize_size": url_tables["normalize"],
            "sim.report_digest": digest_number(outcomes[-1].digest),
        }
    )
    if args.spans_out:
        with open(args.spans_out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": tracer.spans}, handle)
    return {"layer_metrics": metrics, "missing_targets": tracer.missing}


def phase_measure(args: argparse.Namespace) -> dict:
    canary_before = canary_ms()
    dataset, info = open_dataset(args.workload, args.store)
    if WORKLOADS[args.workload]["kind"] == "serve":
        workload = ServeWorkload(args.workload, args.smoke, args.store, args.spool)
    else:
        workload = CrawlWorkload(args.workload, args.smoke, dataset)
    workload.prepare()

    rec = Recorder()
    outcomes: list = []
    distinct_urls = warm_up(workload, rec, outcomes, args)
    if args.trace:
        result = traced_metrics(workload, rec, outcomes, info, args)
    else:
        for _ in range(pass_count(args.workload, args.smoke, args.seconds)):
            run_pass(workload, rec, outcomes)
        result = timed_metrics(rec, outcomes)
    if distinct_urls is not None:
        result["distinct_urls"] = distinct_urls
    canary_after = canary_ms()

    digests = {outcome.digest for outcome in outcomes}
    rec.check(len(digests) == 1, f"passes disagree on the report digest: {sorted(digests)}")
    result.update(
        {
            "attempted": rec.attempted,
            "failed": rec.failed,
            "failures": rec.failures,
            "digest": outcomes[-1].digest,
            "pages": outcomes[-1].pages,
            "page_count": info["page_count"],
            "dataset_open_s": info["dataset_open_s"],
            "peak_rss_mb": peak_rss_mb(),
            "canary_ms_before": canary_before,
            "canary_ms_after": canary_after,
        }
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", type=int, default=0)
    parser.add_argument("--store", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spool", default=None)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)
    result = phase_setup(args) if args.phase == "setup" else phase_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
