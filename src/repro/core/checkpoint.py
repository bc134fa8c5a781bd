"""Deterministic crawl checkpoints: serialise, kill, resume, replay.

A multi-week archiving crawl must survive its own process dying.  This
module gives the simulator that property with one invariant, pinned by
the golden differential suite: **a run checkpointed every K pages,
killed, and resumed replays byte-identical to an uninterrupted run** —
same fetch order, same metrics series, same fault/retry sequence.

To make that true, a checkpoint captures *every* piece of engine state
that feeds ordering or metrics:

- the URL table: every URL in the ``scheduled`` set (everything ever
  enqueued) first, then any other URL the frontier refers to;
- the frontier, as columns over that table, tiebreak counters included;
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

Version history (the writer writes the newest only; every version still
reads):

- **1** — ``frontier`` as one JSON dict per candidate, ``scheduled`` as
  a list of URL strings, ``recorder`` / ``visitor`` / ``loop``, optional
  ``timing`` / ``faults`` / ``breakers``.
- **2** — adds the optional ``sched`` section (the in-flight fetch set
  of a ``concurrency=K`` run).
- **3** — adds the optional ``adversary`` (synthetic-web layer:
  redirect-target map, injection tallies) and ``defenses`` (fingerprint
  set, per-host budgets) sections, and two redirect tallies in ``loop``.
- **4** — columnar over one URL table.  A ``urls`` section lists the
  ``scheduled`` set first and then whatever else the frontier names;
  ``scheduled`` shrinks to the *count* of leading table entries; the
  frontier is ``neg_priority`` / ``tiebreak`` columns plus the
  candidate columns ``u, p, d, r`` of
  :func:`repro.core.candidate.candidates_to_columns` (table positions,
  ``-1`` = no referrer).  Every URL is written, parsed and interned
  once.  Still no store ids anywhere, so a memory crawl and a store
  crawl of the same web write byte-equal files.

A version 1–3 file is upgraded to the version-4 in-memory shape where it
is read (:func:`read_checkpoint`), so nothing downstream — not
:meth:`Frontier.restore <repro.core.frontier.Frontier.restore>`, not the
session — knows the older layouts.  The ≤ K in-flight events of
``sched`` keep the per-candidate dict form in every version.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.candidate import candidate_from_dict, candidates_to_columns, is_list_of
from repro.errors import CheckpointError

FORMAT_NAME = "repro-lswc-checkpoint"
#: The version :func:`write_checkpoint` writes (see the module docstring
#: for what each version added).
FORMAT_VERSION = 4
_READABLE_VERSIONS = (1, 2, 3, 4)

#: Sections a checkpoint may carry.  ``urls`` (version 4 on) and
#: ``frontier``/``scheduled``/``recorder``/``visitor``/``loop`` are
#: always present; the rest are optional, matching the run's attached
#: extras.
_KNOWN_SECTIONS = (
    "urls",
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
    #: The URL table: the ``scheduled`` set first, then any other URL
    #: the frontier's columns point at.
    urls: list[str]
    #: How many leading ``urls`` entries make up the ``scheduled`` set.
    scheduled: int
    #: :meth:`Frontier.snapshot <repro.core.frontier.Frontier.snapshot>`:
    #: columns of positions in ``urls``.
    frontier: dict
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
            ("urls", self.urls),
            ("scheduled", self.scheduled),
            ("frontier", self.frontier),
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


#: What can go wrong reading a field out of a JSON value of the wrong
#: shape — the faults a malformed section turns into, wherever a section
#: is taken apart (:func:`_upgrade_legacy` here, the restores in
#: :mod:`repro.core.session`).
STRUCTURAL_FAULTS = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _upgrade_legacy(path: Path, sections: dict[str, Any]) -> None:
    """Rewrite a version 1–3 file's sections into the version-4 shape.

    Those files hold ``scheduled`` as the URL list itself and every
    frontier candidate as its own dict, in one of four layouts (one per
    frontier class that ever shipped).  Folding them into the URL table
    and columns here, once, is what lets ``Frontier.restore`` know a
    single input shape.  A frontier ``kind`` this module never wrote is
    passed through for its own class to judge.
    """
    scheduled = sections["scheduled"]
    if not is_list_of(scheduled, str):
        raise CheckpointError(f"{path}: 'scheduled' section: not a list of URL strings")
    index = {url: position for position, url in enumerate(scheduled)}
    sections["scheduled"] = len(index)
    frontier = sections["frontier"]
    try:
        kind = frontier.get("kind")
        entries = None
        if kind == "fifo":
            entries = frontier.pop("queue")
        elif kind in ("priority", "reprioritizable"):
            rows = frontier.pop("heap" if kind == "priority" else "entries")
            neg_priorities, tiebreaks, entries = zip(*rows, strict=True) if rows else ((), (), ())
            frontier["neg_priority"] = list(neg_priorities)
            frontier["tiebreak"] = list(tiebreaks)
        elif kind == "host-queue":
            queues = frontier.pop("queues")
            frontier["sites"] = [site for site, _ in queues]
            frontier["sizes"] = [len(queue) for _, queue in queues]
            entries = [entry for _, queue in queues for entry in queue]
        if entries is not None:
            frontier.update(
                candidates_to_columns([candidate_from_dict(entry) for entry in entries], index)
            )
    except STRUCTURAL_FAULTS as exc:
        raise CheckpointError(f"{path}: malformed 'frontier' section: {exc!r}") from exc
    sections["urls"] = list(index)


def read_checkpoint(path: str | Path) -> CheckpointState:
    """Load a checkpoint of any version, in the current in-memory shape.

    This checks what makes a file a checkpoint — header, version, one
    known section per line, none of the required ones missing — and
    upgrades the ``frontier`` / ``scheduled`` sections of a version 1–3
    file.  What is *inside* a section is checked where it is restored
    (:class:`~repro.core.session.CrawlSession`), which raises the same
    error type.

    Raises:
        CheckpointError: missing file, foreign format, unsupported
            version, malformed section line, missing required sections,
            or a legacy frontier that cannot be upgraded.
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
            if not isinstance(header, dict):
                raise CheckpointError(f"{path}: malformed checkpoint header: not an object")
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

    legacy = header["version"] < FORMAT_VERSION
    required = ["frontier", "scheduled", "recorder", "visitor", "loop"]
    if not legacy:
        required.insert(0, "urls")
    missing = [name for name in required if name not in sections]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing sections {missing}")
    if legacy:
        _upgrade_legacy(path, sections)
    return CheckpointState(
        strategy=header.get("strategy", ""),
        steps=header.get("steps", 0),
        urls=sections["urls"],
        scheduled=sections["scheduled"],
        frontier=sections["frontier"],
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
