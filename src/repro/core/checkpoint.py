"""Deterministic crawl checkpoints: serialise, kill, resume, replay.

A multi-week archiving crawl must survive its own process dying.  This
module gives the simulator that property with one invariant, pinned by
the golden differential suite: **a run checkpointed every K pages,
killed, and resumed replays byte-identical to an uninterrupted run** —
same fetch order, same metrics series, same fault/retry sequence.

To make that true, a checkpoint captures *every* piece of engine state
that feeds ordering or metrics:

- the frontier, entry by entry, tiebreak counters included;
- the ``scheduled`` set (everything ever enqueued);
- the :class:`~repro.core.metrics.MetricsRecorder` (accumulated counts
  and the sampled series so far);
- the visitor's transfer accounting;
- the :class:`~repro.core.timing.TimingModel` clock, when attached;
- the fault layer's injection state (global fetch index, per-URL
  attempt counts) and the circuit-breaker board, when attached;
- the resilient loop's requeue budgets and tallies.

On-disk format: JSONL.  Line 1 is a header (format name/version,
strategy, step count); each further line is one ``{"section": name,
"data": ...}`` record.  Writes go through a temp file and an atomic
``os.replace``, so a crash mid-checkpoint leaves the previous
checkpoint intact, never a torn file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import CheckpointError

FORMAT_NAME = "repro-lswc-checkpoint"
#: Version 2 added the optional ``sched`` section (the in-flight fetch
#: set of a ``concurrency=K`` run); version 3 added the optional
#: ``adversary`` (synthetic-web layer: redirect-target map, injection
#: tallies) and ``defenses`` (engine countermeasure state: fingerprint
#: set, per-host budgets) sections.  Older files are still readable —
#: they are exactly version-3 files without the newer sections.
FORMAT_VERSION = 3
_READABLE_VERSIONS = (1, 2, 3)

#: Sections a checkpoint may carry.  ``frontier``/``scheduled``/
#: ``recorder``/``visitor``/``loop`` are always present; the rest are
#: optional, matching the run's attached extras.
_KNOWN_SECTIONS = (
    "frontier",
    "scheduled",
    "recorder",
    "visitor",
    "loop",
    "timing",
    "faults",
    "breakers",
    "sched",
    "adversary",
    "defenses",
)


@dataclass(slots=True)
class CheckpointState:
    """One crawl's resumable state, section by section.

    ``loop`` carries the resilient loop's own bookkeeping: completed
    step count, global pop sequence, per-URL requeue budgets and the
    running resilience tallies.
    """

    strategy: str
    steps: int
    frontier: dict
    scheduled: list[str]
    recorder: dict
    visitor: dict
    loop: dict
    timing: dict | None = None
    faults: dict | None = None
    breakers: dict | None = None
    #: In-flight fetches of a ``concurrency=K`` run (format v2, from
    #: :meth:`repro.core.engine.CrawlEngine.snapshot_events`); None for
    #: round-based (``concurrency=None``) runs.
    sched: dict | None = None
    #: Adversary-layer state (format v3): redirect-target map plus
    #: injection tallies; None when no adversary is attached.
    adversary: dict | None = None
    #: Engine defense state (format v3): fingerprint set and per-host
    #: counters; None when no defenses are armed.
    defenses: dict | None = None
    extra: dict[str, Any] = field(default_factory=dict)

    def sections(self) -> list[tuple[str, Any]]:
        rows: list[tuple[str, Any]] = [
            ("frontier", self.frontier),
            ("scheduled", self.scheduled),
            ("recorder", self.recorder),
            ("visitor", self.visitor),
            ("loop", self.loop),
        ]
        if self.timing is not None:
            rows.append(("timing", self.timing))
        if self.faults is not None:
            rows.append(("faults", self.faults))
        if self.breakers is not None:
            rows.append(("breakers", self.breakers))
        if self.sched is not None:
            rows.append(("sched", self.sched))
        if self.adversary is not None:
            rows.append(("adversary", self.adversary))
        if self.defenses is not None:
            rows.append(("defenses", self.defenses))
        return rows


def write_checkpoint(path: str | Path, state: CheckpointState) -> None:
    """Atomically serialise ``state`` to ``path`` (JSONL).

    The write is all-or-nothing: data goes to ``<path>.tmp`` first and
    is renamed over the destination only after a successful flush, so
    an interrupted checkpoint never corrupts the last good one.
    """
    path = Path(path)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "strategy": state.strategy,
        "steps": state.steps,
    }
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for section, data in state.sections():
                handle.write(
                    json.dumps({"section": section, "data": data}, sort_keys=True) + "\n"
                )
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Load a checkpoint written by :func:`write_checkpoint`.

    Raises:
        CheckpointError: missing file, foreign format, unsupported
            version, malformed section line, or missing required
            sections.
    """
    path = Path(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header_line = handle.readline()
            if not header_line:
                raise CheckpointError(f"{path}: empty checkpoint file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise CheckpointError(f"{path}: malformed checkpoint header: {exc}") from exc
            if header.get("format") != FORMAT_NAME:
                raise CheckpointError(
                    f"{path}: not a crawl checkpoint (format={header.get('format')!r})"
                )
            if header.get("version") not in _READABLE_VERSIONS:
                raise CheckpointError(
                    f"{path}: unsupported checkpoint version {header.get('version')!r}"
                )
            sections: dict[str, Any] = {}
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    name = record["section"]
                    data = record["data"]
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise CheckpointError(
                        f"{path}:{line_number}: malformed checkpoint section: {exc}"
                    ) from exc
                if name not in _KNOWN_SECTIONS:
                    raise CheckpointError(f"{path}:{line_number}: unknown section {name!r}")
                sections[name] = data
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc

    missing = [
        name
        for name in ("frontier", "scheduled", "recorder", "visitor", "loop")
        if name not in sections
    ]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing sections {missing}")
    return CheckpointState(
        strategy=header.get("strategy", ""),
        steps=header.get("steps", 0),
        frontier=sections["frontier"],
        scheduled=sections["scheduled"],
        recorder=sections["recorder"],
        visitor=sections["visitor"],
        loop=sections["loop"],
        timing=sections.get("timing"),
        faults=sections.get("faults"),
        breakers=sections.get("breakers"),
        sched=sections.get("sched"),
        adversary=sections.get("adversary"),
        defenses=sections.get("defenses"),
    )
