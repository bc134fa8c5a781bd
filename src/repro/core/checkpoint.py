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

On-disk format (version 5, the one written)::

    magic "LSWCCKP5" | u64 header_len | u32 crc32(header) | header JSON | columns

The header JSON holds ``format``, ``version``, ``strategy``, ``steps``,
every small section as JSON (``scheduled``, the frontier's scalar fields
under ``frontier``, ``recorder``, ``visitor``, ``loop`` and the optional
``timing`` / ``faults`` / ``breakers`` / ``sched`` / ``adversary`` /
``defenses``), and a ``columns`` table: for each binary column its
``dtype``, ``count``, ``offset`` from the end of the header and
``crc32``.  The columns follow back to back, in offset order, to the
end of the file:

- ``urls.offsets`` / ``urls.arena`` — the URL table as row offsets into
  one UTF-8 arena (decoded and split once, at C speed);
- ``frontier.<name>`` for each of the frontier's integer columns
  ``u p d r neg_priority tiebreak sizes`` it has, each in the
  narrowest of int8 / int16 / int32 / int64 that holds it
  (:func:`~repro.webspace.store.narrowest_int`, the page store's rule).

A priority frontier's rows are written in pop order, each row's
``tiebreak`` its rank, under a push ``counter`` above every rank — so
they are also a valid heap.  Files the earlier heap-backed frontier
wrote (every version up to and including 5) hold them in that heap's
internal layout instead.  Priority rows are read in any order:
:meth:`PriorityFrontier.restore
<repro.core.frontier.PriorityFrontier.restore>` sorts them by
``(neg_priority, tiebreak)``, and two rows sharing a pair are a
:class:`~repro.errors.CheckpointError`.

The reader checks the header crc, the header's shape, the file's size
(every byte belongs to the header or one column), then each column's
crc, before anything is decoded: a flipped bit or a truncation is a
:class:`~repro.errors.CheckpointError` naming the header or the column.
There is no JSON parse of an integer column and no per-candidate Python
on either side.  Writes go through a temp file and an atomic
``os.replace``, so a crash mid-checkpoint leaves the previous checkpoint
intact, never a torn file.

Version history (the writer writes the newest only; every version still
reads):

- **1** — JSONL: line 1 a header (format name/version, strategy, step
  count), each further line one ``{"section": name, "data": ...}``
  record.  ``frontier`` as one JSON dict per candidate, ``scheduled`` as
  a list of URL strings, ``recorder`` / ``visitor`` / ``loop``, optional
  ``timing`` / ``faults`` / ``breakers``.
- **2** — adds the optional ``sched`` section (the in-flight fetch set
  of a ``concurrency=K`` run).
- **3** — adds the optional ``adversary`` (synthetic-web layer:
  redirect-target map, injection tallies) and ``defenses`` (fingerprint
  set, per-host budgets) sections, and two redirect tallies in ``loop``.
- **4** — columnar over one URL table, still JSONL.  A ``urls`` section
  lists the ``scheduled`` set first and then whatever else the frontier
  names; ``scheduled`` shrinks to the *count* of leading table entries;
  the frontier is ``neg_priority`` / ``tiebreak`` columns plus the
  candidate columns ``u, p, d, r`` of
  :func:`repro.core.candidate.candidates_to_columns` (table positions,
  ``-1`` = no referrer).  Every URL is written, parsed and interned
  once.
- **5** — the same sections and columns in the binary, checksummed
  container above.

No version carries store ids, so a memory crawl and a store crawl of the
same web write byte-equal files.  A version 1–3 file is upgraded to the
in-memory shape where it is read (:func:`read_checkpoint`), so nothing
downstream — not :meth:`Frontier.restore
<repro.core.frontier.Frontier.restore>`, not the session — knows the
older layouts.  The ≤ K in-flight events of ``sched`` keep the
per-candidate dict form in every version.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from repro.core.candidate import candidate_from_dict, candidates_to_columns, is_list_of
from repro.errors import CheckpointError
from repro.webspace.store import INT_DTYPES, narrowest_int

FORMAT_NAME = "repro-lswc-checkpoint"
#: The version :func:`write_checkpoint` writes (see the module docstring
#: for what each version added).
FORMAT_VERSION = 5
#: The versions of the JSONL layout, read by :func:`_read_jsonl`.
_JSONL_VERSIONS = (1, 2, 3, 4)
_MAGIC = b"LSWCCKP5"
#: magic | u64 header_len | u32 crc32(header)
_PREFIX = struct.Struct("<QI")

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

#: The frontier fields a version-5 file stores as binary integer columns.
_FRONTIER_COLUMNS = ("u", "p", "d", "r", "neg_priority", "tiebreak", "sizes")

#: Every binary column of a version-5 file and the dtypes it may take.
_COLUMN_DTYPES = {
    "urls.offsets": INT_DTYPES,
    "urls.arena": ("|u1",),
    **{f"frontier.{name}": INT_DTYPES for name in _FRONTIER_COLUMNS},
}

#: Header keys of a version-5 file that are not sections.
_HEADER_FIELDS = ("format", "version", "strategy", "steps", "columns")


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
    #: columns of positions in ``urls`` — int64 arrays from a snapshot,
    #: the on-disk arrays from a version-5 file, lists from a JSONL one.
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
    """Atomically serialise ``state`` to ``path`` (format version 5).

    The write is all-or-nothing: data goes to ``<path>.tmp`` first and
    is renamed over the destination only after a successful flush, so
    an interrupted checkpoint never corrupts the last good one.
    """
    path = Path(path)
    header: dict[str, Any] = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "strategy": state.strategy,
        "steps": state.steps,
    }
    frontier = dict(state.frontier)
    arrays = _url_arrays(state.urls)
    # A snapshot's columns are int64 arrays by construction, and a list
    # (a JSONL file's, a caller's) is made one; the reader and the
    # restore check them again.
    for name in _FRONTIER_COLUMNS:
        if name in frontier:
            column = frontier.pop(name)
            if not isinstance(column, np.ndarray):
                column = np.fromiter(column, dtype=np.int64, count=len(column))
            arrays[f"frontier.{name}"] = column
    for section, data in state.sections():
        if section != "urls":
            header[section] = frontier if section == "frontier" else data
    columns: dict[str, dict] = {}
    blobs: list[bytes] = []
    offset = 0
    for key, array in arrays.items():
        dtype = "|u1" if key == "urls.arena" else narrowest_int(array)
        blob = array.astype(dtype, copy=False).tobytes()
        columns[key] = {
            "dtype": dtype,
            "count": len(array),
            "offset": offset,
            "crc32": f"{zlib.crc32(blob):08x}",
        }
        blobs.append(blob)
        offset += len(blob)
    header["columns"] = columns
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("ascii")
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(_MAGIC + _PREFIX.pack(len(header_bytes), zlib.crc32(header_bytes)))
            handle.write(header_bytes)
            handle.write(b"".join(blobs))
        os.replace(tmp_path, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _url_arrays(urls: list[str]) -> dict[str, np.ndarray]:
    """The URL table as ``urls.offsets`` into one UTF-8 ``urls.arena``.

    When no URL holds a newline — every URL this simulator normalises —
    the table is joined by newlines and encoded in one call, and the
    row ends are where the newlines were; otherwise each URL is encoded
    on its own.  ``surrogatepass`` lets every ``str`` through, as JSON
    did.
    """
    joined = "\n".join(urls).encode("utf-8", "surrogatepass")
    # UTF-8 has no 0x0A byte but the newline itself.
    ends = np.flatnonzero(np.frombuffer(joined, dtype=np.uint8) == ord("\n"))
    offsets = np.zeros(len(urls) + 1, dtype=np.int64)
    if urls and len(ends) == len(urls) - 1:
        offsets[1:-1] = ends - np.arange(len(ends))
        offsets[-1] = len(joined) - len(ends)
        arena = joined.replace(b"\n", b"")
    else:
        pieces = [url.encode("utf-8", "surrogatepass") for url in urls]
        np.cumsum(np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces)), out=offsets[1:])
        arena = b"".join(pieces)
    return {"urls.offsets": offsets, "urls.arena": np.frombuffer(arena, dtype=np.uint8)}


#: What can go wrong reading a field out of a JSON value of the wrong
#: shape — the faults a malformed section turns into, wherever a section
#: is taken apart (:func:`_upgrade_legacy` here, the restores in
#: :mod:`repro.core.session`).
STRUCTURAL_FAULTS = (KeyError, IndexError, TypeError, ValueError, AttributeError)


def _upgrade_legacy(path: Path, sections: dict[str, Any]) -> None:
    """Rewrite a version 1–3 file's sections into the version-4 (in-memory) shape.

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

    A file that opens with the version-5 magic is read by
    :func:`_read_v5`; anything else is taken for the JSONL layout of
    versions 1–4 (:func:`_read_jsonl`).  Both check what makes a file a
    checkpoint — header, version, known sections, none of the required
    ones missing — and the version-5 reader its checksums too.  What is
    *inside* a section is checked where it is restored
    (:class:`~repro.core.session.CrawlSession`), which raises the same
    error type.

    A version-5 file's frontier columns come back as numpy arrays in
    the narrowed dtypes they have on disk, checked where they are
    restored by their dtype, length and range
    (:func:`~repro.core.candidate.checked_columns`); a JSONL file's are
    lists, checked there entry by entry.

    Raises:
        CheckpointError: missing file, foreign format, unsupported
            version, a checksum that does not match, a truncated or
            malformed header, section or column, missing required
            sections, or a legacy frontier that cannot be upgraded.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if handle.read(len(_MAGIC)) == _MAGIC:
                handle.seek(0)
                return _read_v5(path, handle.read())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        return _read_jsonl(path)
    except UnicodeDecodeError as exc:
        raise CheckpointError(
            f"{path}: not a crawl checkpoint: no version-5 header, and not UTF-8 "
            f"JSONL text ({exc.reason})"
        ) from exc


def _read_v5(path: Path, data: bytes) -> CheckpointState:
    """Check and decode a version-5 file held in ``data``."""

    def fail(why: str) -> NoReturn:
        raise CheckpointError(f"{path}: checkpoint header: {why}")

    fixed = len(_MAGIC) + _PREFIX.size
    if len(data) < fixed:
        fail(f"truncated: {len(data)} of the {fixed} bytes before the header JSON")
    header_len, header_crc = _PREFIX.unpack_from(data, len(_MAGIC))
    data_start = fixed + header_len
    if len(data) < data_start:
        fail(f"truncated: {len(data) - fixed} of its {header_len} bytes of JSON")
    raw = data[fixed:data_start]
    crc = zlib.crc32(raw)
    if crc != header_crc:
        fail(f"fails its checksum (crc32 {crc:08x}, stored {header_crc:08x})")
    try:
        header = json.loads(raw)
    except ValueError as exc:
        fail(f"not JSON: {exc}")
    columns = _check_header(path, header)
    end = data_start
    for key, spec in columns:
        if data_start + spec["offset"] != end:
            fail(f"column {key!r} starts at {spec['offset']}, not where the one before ends")
        end += spec["count"] * np.dtype(spec["dtype"]).itemsize
        if end > len(data):
            _column_fail(path, key, f"truncated: ends at byte {end}, the file has {len(data)}")
    if end != len(data):
        fail(f"{len(data) - end} bytes past the last column")
    view = memoryview(data)
    arrays: dict[str, np.ndarray] = {}
    for key, spec in columns:
        start = data_start + spec["offset"]
        array = np.frombuffer(view, dtype=spec["dtype"], count=spec["count"], offset=start)
        column_crc = f"{zlib.crc32(array):08x}"
        if column_crc != spec["crc32"]:
            _column_fail(
                path, key, f"fails its checksum (crc32 {column_crc}, header says {spec['crc32']})"
            )
        arrays[key] = array
    urls = _url_table(path, arrays.pop("urls.offsets"), arrays.pop("urls.arena").tobytes())
    frontier = header["frontier"]
    for key, array in arrays.items():
        # A copy: a view would keep the whole file's bytes alive for as
        # long as a restored queue holds rows of it.
        frontier[key.removeprefix("frontier.")] = array.copy()
    return CheckpointState(
        strategy=header["strategy"],
        steps=header["steps"],
        urls=urls,
        scheduled=header["scheduled"],
        frontier=frontier,
        recorder=header["recorder"],
        visitor=header["visitor"],
        loop=header["loop"],
        timing=header.get("timing"),
        faults=header.get("faults"),
        breakers=header.get("breakers"),
        sched=header.get("sched"),
        adversary=header.get("adversary"),
        defenses=header.get("defenses"),
    )


def _column_fail(path: Path, key: str, why: str) -> NoReturn:
    section, _, column = key.partition(".")
    raise CheckpointError(f"{path}: {section!r} section, column {column!r}: {why}")


def _check_header(path: Path, header: Any) -> list[tuple[str, dict]]:
    """The version-5 header's shape: format and version, every key a
    known section, the required ones present, and a column table of
    known columns with allowed dtypes, counts, offsets and crc32s.
    Returns the column table in offset order."""

    def fail(why: str) -> NoReturn:
        raise CheckpointError(f"{path}: checkpoint header: {why}")

    if not isinstance(header, dict):
        fail("not a JSON object")
    if header.get("format") != FORMAT_NAME:
        raise CheckpointError(f"{path}: not a crawl checkpoint (format={header.get('format')!r})")
    if header.get("version") != FORMAT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
    if not isinstance(header.get("strategy"), str):
        fail(f"strategy {header.get('strategy')!r} is not a string")
    if type(header.get("steps")) is not int or header["steps"] < 0:
        fail(f"steps {header.get('steps')!r} is not a count")
    for name in header.keys() - _HEADER_FIELDS:
        if name not in _KNOWN_SECTIONS or name == "urls":
            raise CheckpointError(f"{path}: unknown section {name!r}")
    columns = header.get("columns")
    if not isinstance(columns, dict):
        fail("columns: not a JSON object")
    required = ["frontier", "scheduled", "recorder", "visitor", "loop"]
    missing = [name for name in required if name not in header]
    missing += [key for key in ("urls.offsets", "urls.arena") if key not in columns]
    if missing:
        raise CheckpointError(f"{path}: checkpoint is missing sections {missing}")
    frontier = header["frontier"]
    if not isinstance(frontier, dict):
        raise CheckpointError(f"{path}: 'frontier' section: not a JSON object")
    for key, spec in columns.items():
        allowed = _COLUMN_DTYPES.get(key)
        if allowed is None:
            raise CheckpointError(f"{path}: unknown section {key!r}")
        if not isinstance(spec, dict):
            _column_fail(path, key, "its header entry is not a JSON object")
        if spec.get("dtype") not in allowed:
            _column_fail(path, key, f"dtype {spec.get('dtype')!r} is not one of {allowed}")
        for field_name in ("count", "offset"):
            if type(spec.get(field_name)) is not int or spec[field_name] < 0:
                _column_fail(path, key, f"{field_name} {spec.get(field_name)!r} is not a count")
        if not (isinstance(spec.get("crc32"), str) and len(spec["crc32"]) == 8):
            _column_fail(path, key, f"crc32 {spec.get('crc32')!r} is not 8 hex digits")
        if key.removeprefix("frontier.") in frontier:
            _column_fail(path, key, "also given in the frontier's JSON fields")
    return sorted(columns.items(), key=lambda item: item[1]["offset"])


def _url_table(path: Path, offsets: np.ndarray, arena: bytes) -> list[str]:
    """The URL strings of a version-5 table, with no Python frame per URL.

    When no URL holds a newline, a newline is inserted at each row end
    and the arena is decoded and split once; otherwise each row is
    decoded on its own.
    """
    bounds = offsets.astype(np.int64)
    if not len(bounds) or bounds[0] != 0 or bounds[-1] != len(arena) or (np.diff(bounds) < 0).any():
        _column_fail(path, "urls.offsets", f"not row offsets into the {len(arena)}-byte arena")
    try:
        if b"\n" not in arena:
            rows = np.insert(np.frombuffer(arena, dtype=np.uint8), bounds[1:], ord("\n"))
            return rows.tobytes().decode("utf-8", "surrogatepass").split("\n")[:-1]
        starts = bounds.tolist()
        return [
            arena[start:end].decode("utf-8", "surrogatepass")
            for start, end in zip(starts, starts[1:])
        ]
    except UnicodeDecodeError as exc:
        _column_fail(path, "urls.arena", f"not UTF-8 URLs ({exc.reason})")


def _read_jsonl(path: Path) -> CheckpointState:
    """Load a version 1–4 (JSONL) checkpoint in the current in-memory shape.

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
            if header.get("version") not in _JSONL_VERSIONS:
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

    legacy = header["version"] < 4
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
