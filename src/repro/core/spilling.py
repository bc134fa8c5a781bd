"""Disk-spilling URL frontier.

The paper's motivating failure mode is queue memory: "Scaling up this to
the case of the real Web, we would end up with the exhaustion of
physical space for the URL queue" (§5.2.1).  The limited-distance
strategy attacks that by *discarding* URLs; this module is the
complementary engineering answer a production crawler uses — keep the
high-priority head of the queue in memory and spill the cold tail to
disk.

:class:`SpillingFrontier` is a :class:`~repro.core.frontier.PriorityFrontier`
whose bands (one FIFO band per priority) hold a bounded resident set:
when the memory budget is exceeded, the coldest entries — the right
ends of the lowest-priority bands — are appended to an on-disk JSONL
spill file, and each stretch of them becomes one :class:`_Spilled`
entry in the band, in the stretch's place.  ``pop`` reads a stretch
back when it reaches the head of the top band, so pop order is exactly
``(-priority, push order)``, as in :class:`~repro.core.frontier.PriorityFrontier`:
a crawl over a spilling queue fetches what the unspilled crawl fetches,
with a small, fixed resident set.  The price is disk traffic — a
stretch read back at a band's head may spill again from its tail.

When the crawl runs over a columnar :class:`~repro.webspace.store.PageStore`
(see :mod:`repro.webspace.store`), pass it as ``page_source``: candidates
whose URL is in the store's URL table spill as ``{"i": url_id}`` —
an integer reference into the store's arena instead of the URL string —
and are re-decoded (and re-interned) from the store when read back.
URLs the store does not know (adversary-minted trap/alias URLs, for
example) fall back to the string wire format, so the two entry kinds
coexist in one spill file.

Sessions opt in through ``SessionConfig(frontier=SpillConfig(...))``.
The queue cannot re-rank a URL it holds, so a strategy whose own queue
is a :class:`~repro.core.frontier.ReprioritizableFrontier` is refused
with it (a :class:`~repro.errors.ConfigError` at session open).
A snapshot reads the spilled stretches back and writes the queue as
:class:`~repro.core.frontier.PriorityFrontier` does; a restore loads it
as that class does and spills back down to the memory limit.  So a
spilled session checkpoints, resumes and is evicted like any other.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, NamedTuple

from repro.core.frontier import (
    Candidate,
    Frontier,
    PriorityFrontier,
    _Rows,
    candidate_from_dict,
    candidate_to_dict,
)
from repro.errors import ConfigError, FrontierError
from repro.schema import ConfigValue
from repro.urlkit.normalize import intern_url

@dataclass(frozen=True, slots=True)
class SpillConfig(ConfigValue):
    """Session-level opt-in to the spilling frontier.

    Attributes:
        memory_limit: maximum candidates resident in memory (the spill
            threshold); the coldest ~10% spill when it is exceeded.
        spill_dir: directory for the spill file (default: the system
            temporary directory).

    Over a web space backed by a :class:`~repro.webspace.store.PageStore`
    candidates spill as integer URL ids; in-memory crawl logs have no
    URL table and spill URL strings.
    """

    memory_limit: int = 10_000
    spill_dir: str | None = field(default=None, metadata={"path": True})

    def __post_init__(self) -> None:
        if self.memory_limit < 2:
            raise ConfigError(f"memory_limit must be >= 2, got {self.memory_limit!r}")


@dataclass(frozen=True, slots=True)
class SpillStats:
    """Accounting of a spilling frontier's disk traffic."""

    spilled: int
    reloaded: int
    peak_resident: int
    peak_total: int


def spill_entry(candidate: Candidate, page_source=None) -> dict:
    """Wire form of one spilled candidate.

    With a ``page_source`` exposing ``id_of`` (a
    :class:`~repro.webspace.store.PageStore`), candidates whose URL is in
    the store's URL table serialise as ``{"i": url_id}`` — 8-ish bytes of
    JSON instead of the URL string, and no string resurrection cost until
    it is read back.  A candidate's carried ``uid`` saves the ``id_of``
    lookup, and reading back puts the id back on the candidate.  Referrers compress the
    same way (``"ri"``).  Everything else falls back to
    :func:`repro.core.candidate.candidate_to_dict`.
    """
    if page_source is None:
        return candidate_to_dict(candidate)
    uid = candidate.uid
    # The carried id is a hint: trust it only if it decodes to this URL.
    if uid is None or not 0 <= uid < page_source.url_count or (
        page_source.url_of(uid) != candidate.url
    ):
        uid = page_source.id_of(candidate.url)
    if uid is None:
        return candidate_to_dict(candidate)
    entry: dict = {"i": int(uid)}
    if candidate.priority:
        entry["p"] = candidate.priority
    if candidate.distance:
        entry["d"] = candidate.distance
    if candidate.referrer is not None:
        rid = page_source.id_of(candidate.referrer)
        if rid is None:
            entry["r"] = candidate.referrer
        else:
            entry["ri"] = int(rid)
    return entry


def candidate_from_spill(entry: dict, page_source=None) -> Candidate:
    """Inverse of :func:`spill_entry`; id entries decode from the store."""
    if "i" not in entry:
        return candidate_from_dict(entry)
    if page_source is None:
        raise FrontierError("id-keyed spill entry but no page source to decode it")
    if "ri" in entry:
        referrer = intern_url(page_source.url_of(entry["ri"]))
    else:
        referrer = entry.get("r")
    return Candidate(
        url=intern_url(page_source.url_of(entry["i"])),
        priority=entry.get("p", 0),
        distance=entry.get("d", 0),
        referrer=referrer,
        uid=entry["i"],
    )


class _Spilled(NamedTuple):
    """A stretch of a band on disk, as one queue entry: ``count``
    candidates, one spill line each, from byte ``offset`` of the spill
    file, in pop order."""

    offset: int
    count: int


class SpillingFrontier(PriorityFrontier):
    """Priority frontier with a bounded in-memory resident set: the
    bands of :class:`~repro.core.frontier.PriorityFrontier`, some of
    whose stretches are on disk as :class:`_Spilled` entries.  ``len``
    counts the spilled candidates too.

    Args:
        memory_limit: maximum candidates held in memory; beyond it the
            lowest-priority entries spill to disk.
        spill_dir: directory for the spill file (a private temporary
            directory by default; the file is deleted on ``close``).
        instrumentation: optional :class:`repro.obs.Instrumentation`;
            when given, spills and reloads are timed
            ("frontier.spill" / "frontier.refill") and disk traffic is
            counted ("frontier.spilled" / "frontier.reloaded").
        page_source: optional :class:`~repro.webspace.store.PageStore`
            (anything with ``id_of``/``url_of``); spilled candidates the
            store knows are written by URL id, not URL string.
    """

    def __init__(
        self,
        memory_limit: int = 10_000,
        spill_dir: str | None = None,
        instrumentation=None,
        page_source=None,
    ) -> None:
        if memory_limit < 2:
            raise FrontierError("memory_limit must be >= 2")
        super().__init__()
        self._instr = instrumentation
        self._page_source = page_source
        self._limit = memory_limit
        self._spill_file = tempfile.NamedTemporaryFile(
            mode="w+b", suffix=".spill.jsonl", dir=spill_dir, delete=False
        )
        self._spill_path = self._spill_file.name
        self._pending_on_disk = 0
        self.spilled = 0
        self.reloaded = 0
        self._peak_resident = 0

    # -- core queue operations ----------------------------------------------

    def push(self, candidate: Candidate) -> None:
        super().push(candidate)
        self._fit()

    # Spilling takes candidates from the bands' tails: a run is pushed
    # candidate by candidate.
    push_run = Frontier.push_run

    def pop(self) -> Candidate:
        if self._keys:
            band = self._bands[self._keys[0]]
            if type(band[0]) is _Spilled:
                self._reload(band)
        candidate = super().pop()
        self._fit()
        return candidate

    @property
    def resident_size(self) -> int:
        """Candidates currently held in memory."""
        return self._size - self._pending_on_disk

    def _live(self, band: deque[Any]) -> list[Any]:
        """The entries of ``band``, its spilled stretches read back."""
        return [
            live
            for entry in band
            for live in (self._read(entry) if type(entry) is _Spilled else (entry,))
        ]

    def restore(self, state: dict, table: Sequence[str]) -> None:
        super().restore(state, table)
        self._fit()

    def stats(self) -> SpillStats:
        return SpillStats(
            spilled=self.spilled,
            reloaded=self.reloaded,
            peak_resident=self._peak_resident,
            peak_total=self.peak_size,
        )

    def close(self) -> None:
        """Remove the spill file.  The frontier is unusable afterwards."""
        try:
            self._spill_file.close()
        finally:
            if os.path.exists(self._spill_path):
                os.unlink(self._spill_path)

    def __enter__(self) -> "SpillingFrontier":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- spill mechanics ------------------------------------------------------

    def _fit(self) -> None:
        """Spill until the resident set is within the memory limit."""
        while self.resident_size > self._limit:
            self._spill_coldest()
        if self.resident_size > self._peak_resident:
            self._peak_resident = self.resident_size

    def _spill_coldest(self) -> None:
        """Spill the coldest ~10% of the limit: the right-most resident
        entries of the coldest bands, each stretch of them replaced, in
        its place, by one :class:`_Spilled` entry."""
        started = time.perf_counter() if self._instr is not None else 0.0
        batch = need = max(1, self._limit // 10)
        self._spill_file.seek(0, os.SEEK_END)
        for key in sorted(self._bands, reverse=True):
            band = self._bands[key]
            # Entries off the band's right end, and the stretch of
            # candidates being spilled: both right-most first.
            back: list[Any] = []
            stretch: list[Candidate] = []
            while band and need:
                entry = band.pop()
                if type(entry) is _Spilled:
                    if stretch:
                        back.append(self._write(stretch))
                        stretch = []
                    back.append(entry)
                elif type(entry) is _Rows:
                    take = min(need, entry.left)
                    stop = entry.stop
                    stretch += [entry.row(at) for at in range(stop - 1, stop - take - 1, -1)]
                    entry.stop, entry.left = stop - take, entry.left - take
                    if entry.left:
                        band.append(entry)
                    need -= take
                else:
                    stretch.append(entry)
                    need -= 1
            if stretch:
                back.append(self._write(stretch))
            band.extend(reversed(back))
            if not need:
                break
        self._spill_file.flush()
        spilled = batch - need
        self._pending_on_disk += spilled
        self.spilled += spilled
        if self._instr is not None:
            self._instr.observe("frontier.spill", time.perf_counter() - started)
            self._instr.count("frontier.spilled", spilled)

    def _write(self, stretch: list[Candidate]) -> _Spilled:
        """Append ``stretch`` (right-most first) to the spill file in pop
        order, as the entry that stands for it."""
        spill = self._spill_file
        entry = _Spilled(spill.tell(), len(stretch))
        for candidate in reversed(stretch):
            record = spill_entry(candidate, self._page_source)
            spill.write(json.dumps(record, separators=(",", ":")).encode() + b"\n")
        return entry

    def _read(self, spilled: _Spilled) -> list[Candidate]:
        """The candidates of a spilled stretch, in pop order."""
        spill = self._spill_file
        spill.seek(spilled.offset)
        lines = [spill.readline() for _ in range(spilled.count)]
        return [candidate_from_spill(json.loads(line), self._page_source) for line in lines]

    def _reload(self, band: deque[Any]) -> None:
        """Read the spilled stretch at the head of ``band`` back into it."""
        started = time.perf_counter() if self._instr is not None else 0.0
        spilled = band.popleft()
        band.extendleft(reversed(self._read(spilled)))
        self._pending_on_disk -= spilled.count
        self.reloaded += spilled.count
        if self._instr is not None:
            self._instr.observe("frontier.refill", time.perf_counter() - started)
            self._instr.count("frontier.reloaded", spilled.count)
