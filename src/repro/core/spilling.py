"""Disk-spilling URL frontier.

The paper's motivating failure mode is queue memory: "Scaling up this to
the case of the real Web, we would end up with the exhaustion of
physical space for the URL queue" (§5.2.1).  The limited-distance
strategy attacks that by *discarding* URLs; this module is the
complementary engineering answer a production crawler uses — keep the
high-priority head of the queue in memory and spill the cold tail to
disk.

:class:`SpillingFrontier` is a :class:`~repro.core.frontier.PriorityFrontier`
whose bands (one FIFO band per priority) are a bounded in-memory
resident set: when the memory budget is exceeded, the coldest entries —
the right ends of the lowest-priority bands — are appended to an
on-disk JSONL spill file, in pop order; when the bands drain, a batch
is loaded back.  Ordering among spilled entries degrades from strict
priority/FIFO to spill-then-batch order — the classic trade a spilling
queue makes — while hot (high-priority) work stays resident, so a
soft-focused crawl over a spilling frontier reaches the same coverage
with a small, fixed resident set.

When the crawl runs over a columnar :class:`~repro.webspace.store.PageStore`
(see :mod:`repro.webspace.store`), pass it as ``page_source``: candidates
whose URL is in the store's URL table spill as ``{"i": url_id}`` —
an integer reference into the store's arena instead of the URL string —
and are re-decoded (and re-interned) from the store on refill.
URLs the store does not know (adversary-minted trap/alias URLs, for
example) fall back to the string wire format, so the two entry kinds
coexist in one spill file.

Sessions opt in through ``SessionConfig(frontier=SpillConfig(...))``.
The queue cannot re-rank a URL it holds, so a strategy whose own queue
is a :class:`~repro.core.frontier.ReprioritizableFrontier` is refused
with it (a :class:`~repro.errors.ConfigError` at session open).
A spilling frontier does not implement checkpoint ``snapshot``/``restore``
(the spill file *is* disk state already), so combining it with
``checkpoint_every=`` / ``resume_from=`` is a
:class:`~repro.errors.ConfigError` and ``snapshot()`` on it a
:class:`~repro.errors.CheckpointError`.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from itertools import islice

from repro.core.frontier import (
    Candidate,
    Frontier,
    PriorityFrontier,
    candidate_from_dict,
    candidate_to_dict,
)
from repro.errors import ConfigError, FrontierError
from repro.schema import ConfigValue
from repro.urlkit.normalize import intern_url

#: How many spilled candidates to reload per refill.
_REFILL_BATCH = 1024


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
    refill.  A candidate's carried ``uid`` saves the ``id_of`` lookup, and
    refill puts the id back on the candidate.  Referrers compress the
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


class SpillingFrontier(PriorityFrontier):
    """Priority frontier with a bounded in-memory resident set: the
    bands of :class:`~repro.core.frontier.PriorityFrontier`, while
    ``len`` also counts the candidates spilled and not yet reloaded.

    Args:
        memory_limit: maximum candidates held in memory; beyond it the
            lowest-priority entries spill to disk.
        spill_dir: directory for the spill file (a private temporary
            directory by default; the file is deleted on ``close``).
        instrumentation: optional :class:`repro.obs.Instrumentation`;
            when given, spill/refill batches are timed
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
            mode="w+", suffix=".spill.jsonl", dir=spill_dir, delete=False
        )
        self._spill_path = self._spill_file.name
        self._pending_on_disk = 0
        self._read_offset = 0
        self.spilled = 0
        self.reloaded = 0
        self._peak_resident = 0

    # -- core queue operations ----------------------------------------------

    def push(self, candidate: Candidate) -> None:
        super().push(candidate)
        if self.resident_size > self._limit:
            self._spill_coldest()
        if self.resident_size > self._peak_resident:
            self._peak_resident = self.resident_size

    # Spilling takes candidates from the bands' tails: a run is pushed
    # candidate by candidate.
    push_run = Frontier.push_run

    def pop(self) -> Candidate:
        if not self._keys and self._pending_on_disk:
            self._refill()
        return super().pop()

    @property
    def resident_size(self) -> int:
        """Candidates currently held in memory."""
        return self._size - self._pending_on_disk

    # The spill file is disk state no checkpoint section carries.
    snapshot = Frontier.snapshot
    restore = Frontier.restore

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

    def _spill_coldest(self) -> None:
        """Spill the coldest ~10% of resident entries to disk in a batch:
        the right ends of the coldest bands, written in pop order."""
        started = time.perf_counter() if self._instr is not None else 0.0
        batch = max(1, self._limit // 10)
        victims: list[Candidate] = []
        for key in sorted(self._bands, reverse=True):
            band = self._bands[key]
            while band and len(victims) < batch:
                victims.append(band.pop())
            if band:
                break
            del self._bands[key]
        self._keys = sorted(self._bands)  # a sorted list is a heap
        victims.reverse()
        self._spill_file.seek(0, os.SEEK_END)
        for candidate in victims:
            record = spill_entry(candidate, self._page_source)
            self._spill_file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._spill_file.flush()
        self._pending_on_disk += len(victims)
        self.spilled += len(victims)
        if self._instr is not None:
            self._instr.observe("frontier.spill", time.perf_counter() - started)
            self._instr.count("frontier.spilled", len(victims))

    def _refill(self) -> None:
        """Load the next batch of spilled candidates back into memory."""
        started = time.perf_counter() if self._instr is not None else 0.0
        self._spill_file.seek(self._read_offset)
        batch = min(_REFILL_BATCH, self._limit)
        lines = list(islice(iter(self._spill_file.readline, ""), batch))
        self._read_offset = self._spill_file.tell()
        for line in lines:
            self._append(candidate_from_spill(json.loads(line), self._page_source))
        loaded = len(lines)
        self._pending_on_disk -= loaded
        self.reloaded += loaded
        if self._instr is not None:
            self._instr.observe("frontier.refill", time.perf_counter() - started)
            self._instr.count("frontier.reloaded", loaded)
