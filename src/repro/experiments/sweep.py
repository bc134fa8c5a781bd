"""The one sweep path: cells → ``RunSpec`` → executor → rows → digest.

Every grid experiment in this package is the same shape — independent
cells, one :class:`~repro.exec.RunSpec` each, results merged in cell
order, rows reduced to a payload, the payload hashed — and every sweep
CLI repeats the same tail: ``--workers``, ``--check-determinism``,
``--output``, ``error: …`` for a :class:`~repro.errors.ReproError`.
Those four things live here, as plain functions; a sweep module
declares its axes and its row reducer and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections.abc import Callable, Collection, Iterable, Iterator
from pathlib import Path
from typing import Any, TypeVar

from repro.errors import ReproError
from repro.exec import DatasetSpec, RunSpec, SweepExecutor

_C = TypeVar("_C", bound=tuple)


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


def strategy_spec(
    dataset: DatasetSpec, strategy: str | tuple[str, dict], **fields: Any
) -> RunSpec:
    """A :class:`RunSpec` for a registry name or ``(name, params)`` pair."""
    name, params = strategy if isinstance(strategy, tuple) else (strategy, {})
    return RunSpec(
        dataset=dataset, strategy=name, params=tuple(sorted(params.items())), **fields
    )


def run_cells(
    cells: Iterable[_C], spec_of: Callable[..., RunSpec], workers: int = 0
) -> Iterator[tuple[_C, Any]]:
    """``(cell, result)`` pairs in cell order; ``spec_of(*cell)`` is the cell's run."""
    cells = list(cells)
    return zip(cells, SweepExecutor(workers).run([spec_of(*cell) for cell in cells]))


def comma_list(
    cast: Callable[[str], Any],
    *,
    known: Collection | None = None,
    minimum: float | None = None,
    maximum: float | None = None,
) -> Callable[[str], tuple]:
    """An argparse ``type=`` for a non-empty comma-separated list.

    Anything ``cast`` rejects, an empty list, a value outside ``known``
    or outside ``[minimum, maximum]`` is an argparse usage error.
    """

    def parse(text: str) -> tuple:
        try:
            values = tuple(cast(part.strip()) for part in text.split(",") if part.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {cast.__name__} values, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        if known is not None:
            unknown = [value for value in values if value not in known]
            if unknown:
                raise argparse.ArgumentTypeError(f"unknown {unknown}; known: {sorted(known)}")
        if minimum is not None and min(values) < minimum:
            raise argparse.ArgumentTypeError(f"values must be >= {minimum}, got {min(values)}")
        if maximum is not None and max(values) > maximum:
            raise argparse.ArgumentTypeError(f"values must be <= {maximum}, got {max(values)}")
        return values

    return parse


def emit_payload(payload: dict, output: str | None) -> None:
    """Write the payload as sorted JSON to ``output``, or print it."""
    rendered = json.dumps(payload, indent=2, sort_keys=True)
    if output is None:
        print(rendered)
        return
    path = Path(output)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(rendered + "\n", encoding="utf-8")
    print(f"wrote {path}")


def add_workers_flag(parser: argparse.ArgumentParser) -> None:
    """``--workers N``: every sweep's fan-out flag, and every CLI's that runs sweeps."""
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="sweep worker processes (0 = serial, default; results are identical either way)",
    )


def sweep_main(
    parser: argparse.ArgumentParser,
    sweep: Callable[[argparse.Namespace], Callable[..., dict]],
    argv: list[str] | None = None,
) -> int:
    """The shared tail of a sweep CLI.

    ``sweep(args)`` binds the module's axes (loading datasets once) and
    returns a callable taking ``workers=`` that produces the payload,
    ``digest_sha256`` included.  ``--check-determinism`` reruns it
    serially and requires the two digests to agree.
    """
    add_workers_flag(parser)
    parser.add_argument("--output", default=None, metavar="FILE.json", help="write the payload here")
    parser.add_argument(
        "--check-determinism",
        action="store_true",
        help="run the sweep twice (second pass serial) and require digest equality",
    )
    args = parser.parse_args(argv)
    try:
        run = sweep(args)
        payload = run(workers=args.workers)
        if args.check_determinism:
            serial = run(workers=0)["digest_sha256"]
            if serial != payload["digest_sha256"]:
                print(
                    f"determinism check FAILED: workers={args.workers} digest "
                    f"{payload['digest_sha256']} != serial digest {serial}",
                    file=sys.stderr,
                )
                return 1
            print(f"determinism check ok: {serial}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    emit_payload(payload, args.output)
    return 0
