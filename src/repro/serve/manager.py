"""The session multiplexer: many resident crawls, bounded memory.

A :class:`SessionManager` holds a table of named
:class:`~repro.core.session.CrawlSession` records and serves ``step``/
``status``/``report`` calls against any of them, from any thread — each
record carries a lock, so concurrent steps on *different* sessions run
in parallel while steps on the *same* session serialise.

The memory discipline is evict-to-disk (the steady-state-memory idea of
the terabyte-corpus analysis in PAPERS.md): a session that falls out of
the resident budget — or is idle, or is evicted explicitly — has its
:meth:`~repro.core.session.CrawlSession.snapshot` spooled to a
checkpoint file and its live object dropped.  The next ``step`` transparently
rebuilds the session with ``resume_from=`` the spool and, once it is
live again, deletes the spool: an eviction spool exists only while its
session is evicted, so every eviction's atomic rename lands on an absent
name (renaming over an existing file makes ext4 flush, ~1 ms a time)
and a resident session leaves nothing on disk.  Because the
kill/resume differential suite pins byte-identical resumption, eviction
is invisible in every report: *which* sessions get evicted (a racy,
scheduling-dependent choice under concurrent load) cannot change *what*
any session computes.

Recency is a logical tick counter, not wall time, so eviction choices —
like everything else here — are reproducible under single-threaded
drivers.

The mid-step rule (the double-count hazard): a step that dies partway —
e.g. a process-kill simulation raising out of a retry backoff — leaves
the live engine with in-flight retry tallies that belong to an
*unfinished* fetch round.  Snapshotting that state would bake the
half-round into the checkpoint, and the resumed session would replay
the round on top of it: attempts counted twice.  The manager therefore
marks a record *dirty* around every step; evicting a dirty record
refuses to snapshot and falls back to the session's last on-disk
periodic checkpoint, whose writer only runs at step boundaries.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from repro.core.session import (
    CrawlRequest,
    CrawlResult,
    CrawlSession,
    SessionConfig,
    SessionStatus,
    check_step_budget,
)
from repro.errors import SessionError

__all__ = ["SessionManager", "ManagedSession"]

#: A session name is a spool file stem: no path separator, no leading dot.
_SESSION_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]*")


@dataclass
class ManagedSession:
    """One slot of the manager's table (internal bookkeeping)."""

    name: str
    request: CrawlRequest
    config: SessionConfig
    session: CrawlSession | None = None
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Logical last-use time (manager tick), drives LRU/idle eviction.
    tick: int = 0
    #: True while a step is executing; stays True if the step died
    #: mid-flight, which forbids snapshotting (see module docstring).
    dirty: bool = False
    #: Path to resume from when non-resident (None = start fresh).
    resume_path: Path | None = None
    #: The eviction spool the manager wrote for this session, while it
    #: exists: set by an eviction, deleted and cleared by the resume.
    spool_path: Path | None = None
    #: True when the manager defaulted ``config.checkpoint_path`` into
    #: its spool dir; only then may ``close`` delete the file.  A
    #: caller-supplied path is the caller's property.
    owns_checkpoint: bool = False
    #: Set (under the record lock) by ``close``; a concurrent call that
    #: fetched the record before it left the table must not resurrect it.
    closed: bool = False
    steps_served: int = 0
    evictions: int = 0
    resumes: int = 0

    @property
    def resident(self) -> bool:
        return self.session is not None


class SessionManager:
    """Multiplexes named crawl sessions with evict-to-disk residency.

    Args:
        spool_dir: directory for eviction spools and default periodic
            checkpoints.  Required before anything can be evicted.
        max_resident: soft cap on live sessions; opening or resuming
            past it evicts the least-recently-used idle session.  None
            = unbounded.
    """

    def __init__(
        self,
        spool_dir: str | Path | None = None,
        max_resident: int | None = None,
    ) -> None:
        if max_resident is not None and max_resident < 1:
            raise SessionError("max_resident must be >= 1")
        self._spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._max_resident = max_resident
        self._records: dict[str, ManagedSession] = {}
        self._table_lock = threading.Lock()
        self._clock = 0
        self._evictions = 0
        self._resumes = 0

    # -- table ----------------------------------------------------------

    def _tock(self) -> int:
        with self._table_lock:
            self._clock += 1
            return self._clock

    def _get(self, name: str) -> ManagedSession:
        with self._table_lock:
            record = self._records.get(name)
        if record is None:
            raise SessionError(f"no session named {name!r}")
        return record

    def names(self) -> list[str]:
        with self._table_lock:
            return sorted(self._records)

    def _spool_for(self, name: str) -> Path:
        if self._spool_dir is None:
            raise SessionError(
                "this SessionManager has no spool_dir; eviction needs one"
            )
        self._spool_dir.mkdir(parents=True, exist_ok=True)
        return self._spool_dir / f"{name}.evict.ckpt"

    # -- lifecycle ------------------------------------------------------

    def open(
        self,
        name: str,
        request: CrawlRequest,
        config: SessionConfig | None = None,
    ) -> SessionStatus:
        """Register and open a new named session."""
        if not isinstance(name, str) or not _SESSION_NAME.fullmatch(name):
            raise SessionError(f"session name must be [A-Za-z0-9._-] not led by '.', got {name!r}")
        config = config or SessionConfig()
        if config.parallel is not None:
            raise SessionError(
                "a ParallelConfig session cannot be served: it has no CrawlResult and no checkpoint"
            )
        owns_checkpoint = False
        if (
            config.checkpoint_every is not None
            and config.checkpoint_path is None
            and self._spool_dir is not None
        ):
            # Default the periodic-checkpoint target into the spool so a
            # cadence alone is enough for crash-safe serving.
            self._spool_dir.mkdir(parents=True, exist_ok=True)
            config = replace(
                config, checkpoint_path=self._spool_dir / f"{name}.periodic.ckpt"
            )
            owns_checkpoint = True
        record = ManagedSession(
            name=name, request=request, config=config, owns_checkpoint=owns_checkpoint
        )
        with self._table_lock:
            if name in self._records:
                raise SessionError(f"session {name!r} is already open")
            self._records[name] = record
        try:
            with record.lock:
                record.session = CrawlSession(request, config).open()
                record.tick = self._tock()
        except BaseException:
            # A failed open (unknown strategy, bad resume file, ...) must
            # not wedge the name: unregister so a corrected spec can
            # reuse it.
            with self._table_lock:
                self._records.pop(name, None)
            raise
        self._enforce_residency(exempt=name)
        return self.status(name)

    def step(self, name: str, budget: int | None = None) -> SessionStatus:
        """Step one session by ``budget`` pages, resuming it if evicted."""
        check_step_budget(budget)  # a refused budget must not mark the record dirty
        record = self._get(name)
        with record.lock:
            if record.dirty:
                # The previous step died mid-flight; the live object's
                # in-flight tallies are unusable.  Fall back to the last
                # step-boundary checkpoint before stepping again.
                self._evict_locked(record)
            session = self._ensure_resident(record)
            record.dirty = True
            stepped = session.step(budget)
            record.dirty = False  # only a cleanly finished step gets here
            record.steps_served += stepped
            record.tick = self._tock()
        self._enforce_residency(exempt=name)
        return self.status(name)

    def step_many(
        self,
        work: Sequence[tuple[str, int | None]],
        max_workers: int | None = None,
    ) -> list[SessionStatus]:
        """Step several sessions concurrently (thread-pooled).

        Returns statuses in ``work`` order.  Steps on distinct sessions
        run in parallel; duplicate names serialise on the record lock.
        """
        if not work:
            return []
        workers = max_workers or min(8, len(work))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda item: self.step(item[0], item[1]), work))

    def status(self, name: str) -> SessionStatus:
        record = self._get(name)
        with record.lock:
            if record.session is not None:
                return record.session.status()
            return SessionStatus(
                state="closed" if record.closed else "evicted",
                steps=0,
                queue_size=0,
                scheduled=0,
                done=False,
            )

    def report(self, name: str) -> CrawlResult:
        """The session's current :class:`CrawlResult` (resumes if needed)."""
        record = self._get(name)
        with record.lock:
            return self._ensure_resident(record).report()

    def close(self, name: str) -> CrawlResult:
        """Final report, then remove the session and its spools.

        The record is marked ``closed`` *before* the record lock is
        released, so a concurrent ``step``/``report`` that fetched the
        record from the table before it was removed fails with a
        :class:`SessionError` instead of resurrecting a zombie session
        from the about-to-be-deleted spools.  Only files the manager
        itself wrote are deleted — the eviction spool went when the
        session was made resident for the report, which leaves the
        periodic checkpoint it defaulted into the spool dir; a
        caller-supplied ``checkpoint_path`` is left in place.
        """
        record = self._get(name)
        with record.lock:
            result = self._ensure_resident(record).report()
            assert record.session is not None
            record.session.close()
            record.session = None
            record.closed = True
        with self._table_lock:
            self._records.pop(name, None)
        if record.owns_checkpoint and record.config.checkpoint_path is not None:
            Path(record.config.checkpoint_path).unlink(missing_ok=True)
        return result

    def close_all(self) -> None:
        for name in self.names():
            try:
                self.close(name)
            except SessionError:
                pass

    # -- eviction -------------------------------------------------------

    def evict(self, name: str) -> None:
        """Spool a session to disk and drop the live object.

        A clean (idle) session is snapshotted at its current step
        boundary.  A *dirty* session — one whose last step died mid-
        flight — must not be snapshotted (its in-flight retry tallies
        would be double-counted on resume); it falls back to its last
        periodic on-disk checkpoint instead.
        """
        record = self._get(name)
        with record.lock:
            self._evict_locked(record)

    def _evict_locked(self, record: ManagedSession) -> None:
        session = record.session
        if session is None:
            return
        if record.dirty:
            periodic = record.config.checkpoint_path
            if periodic is None or not Path(periodic).exists():
                raise SessionError(
                    f"session {record.name!r} died mid-step and has no periodic "
                    "checkpoint to fall back to; cannot evict without "
                    "double-counting its in-flight attempts"
                )
            record.resume_path = Path(periodic)
            record.dirty = False
        else:
            spool = self._spool_for(record.name)
            session.save_checkpoint(spool)
            record.resume_path = record.spool_path = spool
        session.close()
        record.session = None
        record.evictions += 1
        with self._table_lock:
            self._evictions += 1

    def recover(self, name: str) -> SessionStatus:
        """Discard a mid-step-dead session and resume its checkpoint."""
        record = self._get(name)
        with record.lock:
            if record.session is not None and not record.dirty:
                return record.session.status()
            self._evict_locked(record)
            return self._ensure_resident(record).status()

    def evict_idle(self, idle_for: int) -> list[str]:
        """Evict every resident session untouched for ``idle_for`` ticks."""
        with self._table_lock:
            now = self._clock
            candidates = [r for r in self._records.values() if r.resident]
        evicted = []
        for record in candidates:
            if now - record.tick < idle_for:
                continue
            if record.lock.acquire(blocking=False):
                try:
                    if record.resident and now - record.tick >= idle_for and record.session.resumable:
                        self._evict_locked(record)
                        evicted.append(record.name)
                finally:
                    record.lock.release()
        return evicted

    def _enforce_residency(self, exempt: str) -> None:
        """Evict LRU idle sessions until the resident cap holds; one that
        cannot be snapshotted (``CrawlSession.resumable``) stays, as a busy
        one does — only an explicit :meth:`evict` of it raises."""
        if self._max_resident is None:
            return
        while True:
            with self._table_lock:
                resident = [r for r in self._records.values() if r.resident]
                if len(resident) <= self._max_resident:
                    return
                victims = sorted(
                    (r for r in resident if r.name != exempt),
                    key=lambda r: r.tick,
                )
            for record in victims:
                if record.lock.acquire(blocking=False):
                    try:
                        if record.resident and record.session.resumable:
                            self._evict_locked(record)
                            break
                    finally:
                        record.lock.release()
            else:
                return  # every other session is busy; cap is soft

    def _ensure_resident(self, record: ManagedSession) -> CrawlSession:
        """Rebuild an evicted session from its spool (record lock held)."""
        if record.closed:
            raise SessionError(f"session {record.name!r} is closed")
        if record.session is not None:
            return record.session
        config = record.config
        if record.resume_path is not None:
            config = replace(config, resume_from=record.resume_path)
        record.session = CrawlSession(record.request, config).open()
        if record.spool_path is not None:
            # Only the manager's own eviction spool: ``resume_path`` may
            # instead name a periodic checkpoint, which is not ours to
            # delete and must outlive the resume.
            record.spool_path.unlink(missing_ok=True)
            record.spool_path = None
        record.tick = self._tock()
        record.resumes += 1
        with self._table_lock:
            self._resumes += 1
        return record.session

    # -- introspection --------------------------------------------------

    def stats(self) -> dict:
        with self._table_lock:
            records = list(self._records.values())
            evictions, resumes = self._evictions, self._resumes
        return {
            "sessions": len(records),
            "resident": sum(1 for r in records if r.resident),
            "evicted": sum(1 for r in records if not r.resident),
            "steps_served": sum(r.steps_served for r in records),
            "evictions": evictions,
            "resumes": resumes,
        }
