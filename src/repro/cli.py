"""Command-line interface: ``lswc-sim``.

Subcommands map onto the experiment harness:

- ``lswc-sim dataset thai`` — build (and cache) a dataset, print Table 3
  style characteristics.
- ``lswc-sim dataset build thai --out thai.lswc`` — write a dataset as
  a columnar page store (``--capture none`` streams the raw universe in
  bounded memory, the out-of-core path for million-page webs).
- ``lswc-sim dataset inspect thai.lswc`` — print a store's header,
  format version, section widths, sizes and checksum state (``ok``, or
  ``unchecked`` on a v1 file) and capture provenance, then read every record once (a
  damaged row is an error) and print the decoded-URL cache's counters.
- ``lswc-sim run thai soft-focused`` — run one strategy, print the
  summary and checkpoint series.
- ``lswc-sim figure 6 --dataset thai`` — regenerate a paper figure as
  checkpoint tables (and an ASCII chart with ``--chart``).
- ``lswc-sim analyze thai`` — measure the paper's §3 language-locality
  evidence and the degree structure of a dataset.
- ``lswc-sim detect FILE`` — run the charset detector on a local file.
- ``lswc-sim serve`` — the crawl-session server: JSON commands over
  stdio (or ``--http``), with ``--load S M`` running the synthetic
  load generator instead.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import replace
from typing import get_args

from repro.charset.detector import detect_charset
from repro.core.session import SessionConfig
from repro.core.strategies import available_strategies, get_strategy
from repro.errors import ConfigError, ReproError
from repro.experiments import figures as figures_module
from repro.experiments.datasets import load_or_build_dataset
from repro.experiments.report import render_figure, render_ascii_chart, render_table
from repro.experiments.runner import run_strategy, summary_rows
from repro.experiments.sweep import add_workers_flag
from repro.experiments.tables import table3
from repro.graphgen.profiles import profile_by_name
from repro.schema import FieldSpec, field_specs, kinds, load, value_types

_FIGURES = {
    "3": figures_module.figure3,
    "4": figures_module.figure4,
    "5": figures_module.figure5,
    "6": figures_module.figure6,
    "7": figures_module.figure7,
}


#: Checkpoint period of a ``--checkpoint`` run that names none.
_DEFAULT_CHECKPOINT_EVERY = 1000

#: What a bare value flag (``--defenses``) parses to: the field's preset.
_PRESET = object()


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=0.25, help="universe scale factor")
    parser.add_argument("--seed", type=int, default=None, help="override the profile seed")
    parser.add_argument("--no-cache", action="store_true", help="rebuild instead of using the cache")


def _dataset_from_args(name: str, args: argparse.Namespace):
    profile = profile_by_name(name, seed=args.seed)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    cache = None if args.no_cache else "default"
    return load_or_build_dataset(profile, cache_dir=cache)


class _ListStrategiesAction(argparse.Action):
    """``--list-strategies``: print the registry and exit (like ``--help``)."""

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, dest, nargs=0, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        width = max(len(name) for name in available_strategies())
        for name, description in available_strategies().items():
            print(f"{name:<{width}}  {description}")
        parser.exit(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lswc-sim",
        description="Language specific web crawling simulator (DEWS/ICDE 2005 reproduction)",
    )
    parser.add_argument(
        "--list-strategies",
        action=_ListStrategiesAction,
        help="list the registered crawl strategies and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser(
        "dataset",
        help="build a dataset and print its characteristics; "
        "'build'/'inspect' work with columnar page-store files",
    )
    p_dataset.add_argument(
        "profile",
        choices=["thai", "japanese", "korean", "build", "inspect"],
        help="a profile name prints Table 3; 'build' writes a page store; "
        "'inspect' prints a store file's header",
    )
    p_dataset.add_argument(
        "target",
        nargs="?",
        default=None,
        help="for 'build': the profile to build (thai/japanese/korean); "
        "for 'inspect': the store file path",
    )
    p_dataset.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="for 'build': destination page-store file (required)",
    )
    p_dataset.add_argument(
        "--capture",
        choices=["none", "soft-limited", "hard-limited"],
        default=None,
        help="for 'build': capture crawl kind ('none' streams the raw "
        "universe, the default; others replay the paper's capture "
        "pipeline over the store)",
    )
    p_dataset.add_argument(
        "--capture-n",
        type=int,
        default=None,
        metavar="N",
        help="for 'build': tunneling depth of the capture crawl",
    )
    _add_dataset_args(p_dataset)

    p_run = sub.add_parser("run", help="run one strategy over a dataset")
    p_run.add_argument("profile", choices=["thai", "japanese", "korean"])
    p_run.add_argument(
        "strategy",
        help="a registered strategy name (see --list-strategies)",
    )
    p_run.add_argument(
        "--n",
        type=int,
        default=2,
        help="tunnelling depth N for limited-distance / hard+limited / soft+limited",
    )
    p_run.add_argument("--prioritized", action="store_true", help="prioritized limited distance")
    p_run.add_argument("--classifier", default="charset", help="charset|meta|detector|oracle")
    p_run.add_argument(
        "--trace",
        metavar="FILE.jsonl",
        default=None,
        help="write one JSONL span per fetched page to FILE.jsonl",
    )
    p_run.add_argument(
        "--profile",
        dest="profile_timings",
        action="store_true",
        help="print a per-component timing table after the run",
    )
    p_run.add_argument(
        "--resume",
        metavar="FILE",
        default=None,
        help="resume the crawl from a checkpoint file",
    )
    _add_config_flags(p_run)
    _add_dataset_args(p_run)

    p_figure = sub.add_parser("figure", help="regenerate a paper figure")
    p_figure.add_argument("number", choices=sorted(_FIGURES))
    p_figure.add_argument("--dataset", default=None, help="thai (default) or japanese")
    p_figure.add_argument("--chart", action="store_true", help="also draw ASCII charts")
    add_workers_flag(p_figure)
    _add_dataset_args(p_figure)

    p_analyze = sub.add_parser("analyze", help="language locality + degree structure of a dataset")
    p_analyze.add_argument("profile", choices=["thai", "japanese", "korean"])
    _add_dataset_args(p_analyze)

    p_reproduce = sub.add_parser(
        "reproduce", help="regenerate every table and figure into a directory"
    )
    p_reproduce.add_argument("output_dir")
    p_reproduce.add_argument("--scale", type=float, default=0.25)
    p_reproduce.add_argument("--no-cache", action="store_true")
    add_workers_flag(p_reproduce)

    p_detect = sub.add_parser("detect", help="detect the charset of a local file")
    p_detect.add_argument("path")

    p_serve = sub.add_parser(
        "serve",
        help="run the crawl-session server (JSON over stdio, or HTTP)",
    )
    p_serve.add_argument(
        "--http",
        metavar="HOST:PORT",
        default=None,
        help="serve HTTP on HOST:PORT instead of JSON lines on stdio",
    )
    p_serve.add_argument(
        "--spool-dir",
        metavar="DIR",
        default=None,
        help="directory for eviction spools (default: a temp directory)",
    )
    p_serve.add_argument(
        "--max-resident",
        type=int,
        default=None,
        metavar="N",
        help="evict least-recently-used sessions beyond N resident (default: unbounded)",
    )
    p_serve.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="base of the deterministic per-session dataset seeds",
    )
    p_serve.add_argument(
        "--seed-pool",
        type=int,
        default=None,
        metavar="N",
        help="seedless sessions cycle through N counter-derived dataset "
        "seeds so they share cached web spaces (default 8)",
    )
    p_serve.add_argument(
        "--dataset-cache-size",
        type=int,
        default=None,
        metavar="N",
        help="LRU cap on resolved web spaces held in memory (default 32)",
    )
    p_serve.add_argument(
        "--load",
        nargs="+",
        metavar="PROFILE",
        default=None,
        help="run the synthetic load generator instead of serving "
        "(profiles: S M L XL)",
    )
    p_serve.add_argument(
        "--load-seed",
        type=int,
        default=None,
        help="workload seed for --load (default 42)",
    )
    p_serve.add_argument(
        "--bench-out",
        metavar="FILE.json",
        default=None,
        help="with --load: write BENCH_serve_load.json-style metrics to FILE",
    )
    p_serve.add_argument(
        "--check-determinism",
        action="store_true",
        help="with --load: run each profile twice and require identical digests",
    )

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "dataset":
        if args.profile == "build":
            return _dataset_build(args)
        if args.profile == "inspect":
            return _dataset_inspect(args)
        dataset = _dataset_from_args(args.profile, args)
        print(render_table(table3([dataset]), title="Dataset characteristics (Table 3)"))
        return 0

    if args.command == "run":
        return _run(args)

    if args.command == "figure":
        default_dataset = "japanese" if args.number == "4" else "thai"
        dataset = _dataset_from_args(args.dataset or default_dataset, args)
        figure = _FIGURES[args.number](dataset, workers=args.workers)
        print(render_figure(figure))
        if args.chart:
            for metric in figure.panels:
                print(render_ascii_chart(figure, metric))
        return 0

    if args.command == "analyze":
        from repro.analysis import degree_stats, locality_evidence

        dataset = _dataset_from_args(args.profile, args)
        evidence = locality_evidence(dataset.crawl_log, dataset.target_language)
        degrees = degree_stats(dataset.crawl_log)
        print(render_table([evidence.to_dict()], title="Language locality evidence (paper §3)"))
        print(
            render_table(
                [dict(direction=key, **stats.to_dict()) for key, stats in degrees.items()],
                title="Degree structure",
            )
        )
        return 0

    if args.command == "reproduce":
        from repro.experiments.reproduce import reproduce_all

        artifacts = reproduce_all(
            args.output_dir,
            scale=args.scale,
            cache=not args.no_cache,
            progress=print,
            workers=args.workers,
        )
        print(artifacts)
        return 0

    if args.command == "detect":
        with open(args.path, "rb") as handle:
            result = detect_charset(handle.read())
        print(f"charset={result.charset} confidence={result.confidence:.2f} language={result.language}")
        return 0

    if args.command == "serve":
        return _serve(args)

    raise AssertionError(f"unhandled command {args.command!r}")


def _config_flags() -> list[tuple[str, FieldSpec, FieldSpec | None]]:
    """``(flag, field, parent)`` of every run flag the config schema declares.

    Each :class:`SessionConfig` field that is not live is a flag: a
    scalar takes its value, a nested value a JSON file (or, given bare,
    the field's ``preset``).  The fields of a nested value that declare a
    ``flag`` follow it, as overrides of that value.
    """
    flags: list[tuple[str, FieldSpec, FieldSpec | None]] = []
    for spec in field_specs(SessionConfig):
        flag = spec.metadata.get("flag", True)
        if spec.live or flag is False:
            continue
        flags.append((_flag_name(spec, flag), spec, None))
        for value_type in value_types(spec.hint)[:1]:
            for sub in field_specs(value_type):
                if sub.metadata.get("flag"):
                    flags.append((_flag_name(sub, sub.metadata["flag"]), sub, spec))
    return flags


def _flag_name(spec: FieldSpec, flag: bool | str) -> str:
    return flag if isinstance(flag, str) else spec.key.replace("_", "-")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("session config", "SessionConfig fields")
    for flag, spec, _parent in _config_flags():
        # The field's doc comment, first sentence, without reST markup.
        text = re.sub(r":\w+:`~?(?:[\w.]+\.)?(\w+)`", r"\1", spec.doc).replace("``", "")
        text = text.split(". ")[0].rstrip(".")
        kwargs: dict = {}
        if value_types(spec.hint):
            kwargs["metavar"] = "FILE.json"
            text += " (a JSON file"
            if len(value_types(spec.hint)) > 1:
                text += ' with a "kind": ' + " | ".join(sorted(kinds(spec.hint)))
            if "preset" in spec.metadata:
                kwargs.update(nargs="?", const=_PRESET)
                text += "; bare, the standard preset"
            text += ")"
        elif bool in _scalars(spec.hint):
            kwargs.update(action="store_const", const=True)
        else:
            kwargs["type"] = _scalars(spec.hint)[0]
            kwargs["metavar"] = "FILE" if spec.metadata.get("path") else kwargs["type"].__name__.upper()
            if spec.default is not None:
                text += f" (default {spec.default:g})"
        group.add_argument(f"--{flag}", default=None, help=text.replace("%", "%%"), **kwargs)


def _scalars(hint) -> tuple:
    return tuple(option for option in get_args(hint) or (hint,) if option is not type(None))


def _config_from_args(args: argparse.Namespace) -> SessionConfig:
    """The run's config, spelled by the flags given.

    An override of a nested value starts from the value its parent flag
    gave, or else from that value's defaults (so ``--latency`` alone arms
    a clock) — unless the field is ``override_only``: ``--fault-seed``
    without ``--faults`` would attach a layer that injects nothing.
    """
    changes: dict = {}
    for flag, spec, parent in _config_flags():
        given = getattr(args, flag.replace("-", "_"))
        if given is None:
            continue
        if parent is not None:
            base = changes.get(parent.name)
            if base is None:
                if spec.metadata.get("override_only"):
                    parent_flag = _flag_name(parent, parent.metadata.get("flag", True))
                    raise ConfigError(f"--{flag} needs --{parent_flag}")
                base = value_types(parent.hint)[0]()
            changes[parent.name] = replace(base, **{spec.name: given})
        elif given is _PRESET:
            changes[spec.name] = spec.metadata["preset"]()
        elif value_types(spec.hint):
            changes[spec.name] = load(spec.hint, given)
        else:
            changes[spec.name] = given
    config = SessionConfig(**changes)
    if config.checkpoint_path is not None and config.checkpoint_every is None:
        config = replace(config, checkpoint_every=_DEFAULT_CHECKPOINT_EVERY)
    return replace(config, resume_from=args.resume)


def _run(args: argparse.Namespace) -> int:
    from repro.obs import Instrumentation

    config = _config_from_args(args)
    dataset = _dataset_from_args(args.profile, args)
    kwargs = {}
    if args.strategy == "limited-distance":
        kwargs = {"n": args.n, "prioritized": args.prioritized}
    elif args.strategy in ("hard+limited", "soft+limited"):
        kwargs = {"n": args.n}
    strategy = get_strategy(args.strategy, **kwargs)
    instrumentation = None
    if args.trace or args.profile_timings:
        try:
            instrumentation = Instrumentation(trace_path=args.trace)
        except OSError as exc:
            print(f"error: cannot open trace file: {exc}", file=sys.stderr)
            return 1
    try:
        result = run_strategy(
            dataset,
            strategy,
            replace(config, instrumentation=instrumentation),
            classifier_mode=args.classifier,
        )
    finally:
        if instrumentation is not None:
            instrumentation.close()
    print(render_table(summary_rows({strategy.name: result}), title="Run summary"))
    if result.resilience is not None:
        row = {
            key: value
            for key, value in result.resilience.items()
            if key != "faults_injected"
        }
        for kind, injected in result.resilience["faults_injected"].items():
            row[f"faults_{kind}"] = injected
        print()
        print(render_table([row], title="Resilience"))
    if result.adversary is not None:
        row = {
            f"inj_{kind}": count
            for kind, count in result.adversary["injected"].items()
        }
        row.update(result.adversary["defense_stats"])
        row["redirect_hops"] = result.adversary["redirect_hops"]
        row["redirect_aborts"] = result.adversary["redirect_aborts"]
        print()
        print(render_table([row], title="Adversary"))
    if instrumentation is not None and args.profile_timings:
        print()
        print(instrumentation.render_profile(title="Per-component profile"))
    if instrumentation is not None and args.trace:
        print(f"\ntrace written to {args.trace}")
    return 0


def _dataset_build(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import build_dataset_store, open_dataset_store

    if args.target not in ("thai", "japanese", "korean"):
        print(
            "error: dataset build needs a profile: "
            "lswc-sim dataset build thai --out FILE",
            file=sys.stderr,
        )
        return 2
    if args.out is None:
        print("error: dataset build needs --out FILE", file=sys.stderr)
        return 2
    profile = profile_by_name(args.target, seed=args.seed)
    if args.scale != 1.0:
        profile = profile.scaled(args.scale)
    capture_kind = args.capture if args.capture is not None else "none"
    path = build_dataset_store(
        profile, args.out, capture_kind=capture_kind, capture_n=args.capture_n
    )
    dataset = open_dataset_store(path)
    store = dataset.crawl_log
    print(
        f"wrote {path}: {store.page_count} pages, {store.url_count} urls, "
        f"{store.link_count} links, {store.nbytes} bytes "
        f"(capture={dataset.capture_kind})"
    )
    store.close()
    return 0


def _dataset_inspect(args: argparse.Namespace) -> int:
    from repro.experiments.datasets import open_dataset_store

    if args.target is None:
        print(
            "error: dataset inspect needs a store file: "
            "lswc-sim dataset inspect FILE",
            file=sys.stderr,
        )
        return 2
    dataset = open_dataset_store(args.target)
    store = dataset.crawl_log
    rows = [
        {
            "name": dataset.name,
            "pages": store.page_count,
            "urls": store.url_count,
            "links": store.link_count,
            "seeds": len(dataset.seed_urls),
            "capture": dataset.capture_kind,
            "capture_n": dataset.capture_n,
            "bytes": store.nbytes,
            "format": store.header["version"],
            "fingerprint": dataset.profile.fingerprint(),
        }
    ]
    print(render_table(rows, title=f"Page store {args.target}"))
    checksum = "ok" if store.header["version"] > 1 else "unchecked"  # the open verified each
    sizes = store.section_sizes()
    sections = [
        {"section": name, "dtype": spec["dtype"], "bytes": sizes[name], "crc32": checksum}
        for name, spec in store.header["sections"].items()
    ]
    print(render_table(sections, title="Sections"))
    for _record in store:  # every row read once: damage is an error here, not mid-crawl
        pass
    cache = store.url_cache_stats()
    cache["hit_ratio"] = round(cache["hits"] / max(1, cache["lookups"]), 3)
    print(render_table([cache], title="Decoded-URL cache after one sequential scan"))
    store.close()
    return 0


def _serve(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from repro.serve import (
        ProtocolHandler,
        SessionManager,
        make_http_server,
        run_bench,
        serve_stdio,
    )
    from repro.serve.protocol import (
        DEFAULT_BASE_SEED,
        DEFAULT_DATASET_CACHE_SIZE,
        DEFAULT_SEED_POOL,
    )

    if args.load is not None:
        bench = run_bench(
            profiles=list(args.load),
            seed=args.load_seed if args.load_seed is not None else 42,
            spool_dir=args.spool_dir,
            out_path=args.bench_out,
            check_determinism=args.check_determinism,
        )
        print(json.dumps(bench, indent=2, sort_keys=True))
        if args.bench_out:
            print(f"bench written to {args.bench_out}", file=sys.stderr)
        return 0

    spool_dir = args.spool_dir
    tmp_spool = None
    if spool_dir is None:
        tmp_spool = tempfile.TemporaryDirectory(prefix="lswc-serve-")
        spool_dir = tmp_spool.name
    manager = SessionManager(spool_dir=spool_dir, max_resident=args.max_resident)
    handler = ProtocolHandler(
        manager,
        base_seed=args.base_seed if args.base_seed is not None else DEFAULT_BASE_SEED,
        seed_pool=args.seed_pool if args.seed_pool is not None else DEFAULT_SEED_POOL,
        dataset_cache_size=args.dataset_cache_size
        if args.dataset_cache_size is not None
        else DEFAULT_DATASET_CACHE_SIZE,
    )
    try:
        if args.http is not None:
            host, _, port = args.http.rpartition(":")
            server = make_http_server(handler, host or "127.0.0.1", int(port))
            print(
                f"serving crawl sessions on http://{server.server_address[0]}"
                f":{server.server_address[1]}/ (POST JSON commands)",
                file=sys.stderr,
            )
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.server_close()
                manager.close_all()
            return 0
        serve_stdio(handler, sys.stdin, sys.stdout)
        manager.close_all()
        return 0
    finally:
        if tmp_spool is not None:
            tmp_spool.cleanup()


if __name__ == "__main__":
    raise SystemExit(main())
