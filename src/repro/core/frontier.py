"""URL frontiers (the paper's "URL queue").

Two disciplines cover every strategy in the paper:

- :class:`FIFOFrontier` — plain breadth-first order; used by the
  breadth-first baseline, the hard-focused simple strategy (where every
  kept URL has equal priority) and the non-prioritized limited-distance
  strategy.
- :class:`PriorityFrontier` — a max-priority queue with FIFO tie-breaking,
  used by the soft-focused simple strategy (two priority bands) and the
  prioritized limited-distance strategy (N+1 bands keyed on distance).

Both track their peak occupancy, which is the quantity Figures 5-7(a)
plot.

:class:`PriorityFrontier` is a bucket queue: one ``deque`` band per
distinct priority, keyed by ``-priority``, and a small heap of just the
band keys.  A push appends to its band and a pop takes the left end of
the top band, dropping that band's key once the band is empty — O(1)
each but for the heap of keys, which holds only as many entries as there
are distinct priorities (2 for soft-focused, N+1 for prioritized
limited-distance, layers+2 for the context graph).  Pop order is exactly
``(-priority, push order)``, and a candidate is never compared, so it is
the same on every Python version.  The golden-trace suite
(``tests/golden``) pins that ordering byte-for-byte.

Rows not yet popped come in two shapes, and both are one queue entry,
a :class:`_Rows`: the links of one page, pushed whole by
:meth:`Frontier.push_run` (a :class:`~repro.core.candidate.LinkRun`),
and a restored queue — :class:`FIFOFrontier`'s, or each band of a
:class:`PriorityFrontier` — kept in its checkpoint columns.  ``pop``
builds one candidate at a time from the entry at the head, so a page's
links cost no Python frame each on the way in, and a resumed crawl pays
per candidate it pops, not per candidate the queue holds.  A restored
queue stays in the integer arrays it was checked as: ``pop`` reads one
row of them as plain ints, and a snapshot writes the rows not popped
back as array slices, their positions remapped into the new URL table
by one array lookup.  Candidates pushed one by one (seeds, requeues) are
entries of their own.

:class:`ReprioritizableFrontier` is the same bands with lazy deletion:
an update appends the candidate to its new band in O(1) and
*tombstones* the stale entry, which pop discards when it reaches the
head of its band.  Tombstones are compacted once they outnumber live
entries, bounding the bands at twice the live size.  The spilling
frontier (:mod:`repro.core.spilling`) is a :class:`PriorityFrontier`
too, a stretch of a band on disk being one more kind of band entry, so
the bands are the one priority mechanism every queue rests on.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Callable, Collection, Iterable, Sequence
from itertools import chain, repeat
from typing import Any, cast

import numpy as np

from repro.core.candidate import (
    Candidate,
    LinkRun,
    candidate_from_dict,
    candidate_to_dict,
    checked_columns,
    int_column,
    new_candidate,
    referrer_positions,
    url_positions,
)
from repro.errors import CheckpointError, FrontierError

__all__ = [
    "Candidate",
    "candidate_to_dict",
    "candidate_from_dict",
    "Frontier",
    "FIFOFrontier",
    "PriorityFrontier",
    "ReprioritizableFrontier",
]


class _Rows:
    """Queued rows not yet popped, as one queue entry.

    Two things are rows: the links of one page (``_Rows(run)``: the
    run's URL tuple, url-id hints and shared fields) and a restored
    queue or band (:meth:`restored`: rows ``start`` up to ``stop`` of a
    checkpoint's columns ``u, p, d, r``, shared between the bands and
    kept as the integer arrays they were checked as, with ``urls`` the
    checkpoint's URL table).  The queue's ``pop`` builds the one
    candidate at the cursor (``stop - left``) and takes the entry off
    the queue with its last row; only the entry at the head of a queue
    is ever partly popped.

    A run keeps its shared fields once rather than repeated into
    columns: a queued run is then two objects, this and its URL tuple.
    """

    __slots__ = ("urls", "uids", "priority", "distance", "referrer", "columns", "stop", "left")

    def __init__(self, run: LinkRun) -> None:
        self.urls: Sequence[str] = run.urls
        self.uids: Sequence[int | None] | None = run.uids
        self.priority: int = run.priority
        self.distance: int = run.distance
        self.referrer: str | None = run.referrer
        #: The checkpoint columns ``u, p, d, r`` (restored rows only).
        self.columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        #: Rows not yet popped, and the end of them.
        self.left = self.stop = len(run.urls)

    @classmethod
    def restored(
        cls,
        table: Sequence[str],
        columns: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        start: int,
        stop: int,
    ) -> "_Rows":
        """Rows ``start`` up to ``stop`` of a checkpoint's checked columns
        ``u, p, d, r`` over the (interned) URL ``table``."""
        rows = cls.__new__(cls)
        rows.urls, rows.uids, rows.columns = table, None, columns
        rows.stop, rows.left = stop, stop - start
        return rows

    def row(self, at: int) -> Candidate:
        """Row ``at`` of restored rows as a candidate of plain ints and
        strings (``pop`` builds a pushed run's rows inline)."""
        assert self.columns is not None
        u, p, d, r = self.columns
        table = self.urls
        referrer = r.item(at)
        return new_candidate((
            table[u.item(at)], p.item(at), d.item(at),
            None if referrer < 0 else table[referrer], None,
        ))

    def unpopped(self, column: int) -> np.ndarray:
        """The unpopped rows of restored column ``column`` (0-3: ``u, p, d, r``)."""
        assert self.columns is not None
        return self.columns[column][self.stop - self.left:self.stop]

    def rows(self) -> list[Sequence[Any]]:
        """The unpopped rows, one sequence per candidate column (no url-ids),
        of plain ints and strings."""
        left, stop = self.left, self.stop
        start = stop - left
        if self.columns is None:
            urls = self.urls[start:stop]
            return [urls, [self.priority] * left, [self.distance] * left, [self.referrer] * left]
        u, p, d, r = (column[start:stop].tolist() for column in self.columns)
        url_at = [*self.urls, None].__getitem__  # r's -1 is the None
        return [list(map(url_at, u)), p, d, list(map(url_at, r))]


#: ``_new_candidate(Candidate, fields)`` is ``new_candidate(fields)``
#: minus the ``partial`` call: ``pop`` builds every candidate of a run
#: with it.
_new_candidate = cast("Callable[[type[Candidate], tuple], Candidate]", tuple.__new__)


def _segments(entries: Iterable[Any]) -> list[Any]:
    """Queue ``entries`` — candidates and :class:`_Rows`, in pop order —
    as snapshot segments: each restored entry is one, kept in its
    columns, and each stretch of other entries is four lists (URLs,
    priorities, distances, referrers)."""
    segments: list[Any] = []
    fresh: list[list[Any]] | None = None
    for entry in entries:
        if type(entry) is _Rows and entry.columns is not None:
            segments.append(entry)
            fresh = None
            continue
        if fresh is None:
            fresh = [[], [], [], []]
            segments.append(fresh)
        if type(entry) is _Rows:
            for column, rows in zip(fresh, entry.rows()):
                column += rows
        else:
            for column, value in zip(fresh, entry):
                column.append(value)
    return segments


def _snapshot_columns(segments: list[Any], index: dict[str, int]) -> dict[str, np.ndarray]:
    """The columns ``u, p, d, r`` (int64) of :func:`_segments` over ``index``.

    Positions come as :func:`~repro.core.candidate.url_columns` gives
    them — every URL first, then every referrer, each in order, a URL
    ``index`` lacks appended to it — so the table is the same whichever
    way a row is held.  Restored rows are remapped from their table into
    ``index`` by one array lookup: ``remap`` holds each table entry's
    position in ``index`` (``-2`` where it has none), with a last ``-1``
    that ``r``'s "no referrer" indexes.  It is built once, at C speed,
    and only a slice that meets a ``-2`` is resolved URL by URL.
    """
    remaps: dict[int, np.ndarray] = {}  # by id of the table: a frontier has one

    def positions(rows: _Rows, column: int) -> np.ndarray | list[int]:
        table = rows.urls
        remap = remaps.get(id(table))
        if remap is None:
            found = chain(map(index.get, table, repeat(-2)), (-1,))
            remap = remaps[id(table)] = np.fromiter(found, dtype=np.int64, count=len(table) + 1)
        at = rows.unpopped(column)
        mapped = remap[at]
        if not (mapped == -2).any():
            return mapped
        position = index.setdefault
        urls = map([*table, None].__getitem__, at.tolist())
        return [-1 if url is None else position(url, len(index)) for url in urls]

    u = [positions(s, 0) if type(s) is _Rows else url_positions(s[0], index) for s in segments]
    r = [positions(s, 3) if type(s) is _Rows else referrer_positions(s[3], index) for s in segments]
    p = [s.unpopped(1) if type(s) is _Rows else s[1] for s in segments]
    d = [s.unpopped(2) if type(s) is _Rows else s[2] for s in segments]
    return {"u": _int64(u), "p": _int64(p), "d": _int64(d), "r": _int64(r)}


def _int64(pieces: list[Any]) -> np.ndarray:
    """Column pieces — arrays and lists of ints — as one int64 array."""
    arrays = [
        piece if type(piece) is np.ndarray else np.fromiter(piece, dtype=np.int64, count=len(piece))
        for piece in pieces
    ]
    return np.concatenate(arrays, dtype=np.int64) if arrays else np.zeros(0, dtype=np.int64)


class Frontier(ABC):
    """Common interface of the URL queue implementations.

    Every implementation keeps two always-on operation counters —
    ``pushes`` and ``pops`` — cheap enough to maintain unconditionally
    and the raw material of the observability layer's frontier gauges
    (:mod:`repro.obs`).  Each ``push`` counts itself and raises
    ``_peak_size`` inline, from its own container's C-level ``len`` or
    its own count of what it holds;
    truth is ``__len__`` alone (no ``__bool__``), so the engine's
    ``while frontier`` costs one Python call.
    """

    def __init__(self) -> None:
        self._peak_size = 0
        self.pushes = 0
        self.pops = 0

    @abstractmethod
    def push(self, candidate: Candidate) -> None:
        """Add a candidate to the queue."""

    def push_run(self, run: LinkRun) -> None:
        """Add the candidates of one page's :class:`~repro.core.candidate.LinkRun`,
        in order.

        Pushes each candidate; :class:`FIFOFrontier` and
        :class:`PriorityFrontier` queue the run as one entry instead.
        Either way the counters and the pop order are those of the
        candidate pushes.
        """
        for candidate in run:
            self.push(candidate)

    @abstractmethod
    def pop(self) -> Candidate:
        """Remove and return the next candidate to crawl.

        Raises:
            FrontierError: when the frontier is empty.
        """

    @abstractmethod
    def __len__(self) -> int: ...

    @property
    def peak_size(self) -> int:
        """Largest queue occupancy observed so far."""
        return self._peak_size

    def close(self) -> None:
        """Release external resources (spill files etc.).

        No-op for in-memory frontiers; the simulator calls this when a
        crawl finishes.
        """

    @abstractmethod
    def snapshot(self, index: dict[str, int]) -> dict:
        """Serialisable state for checkpointing, as columns.

        Candidates are written as the columns
        :func:`~repro.core.candidate.candidates_to_columns` gives (the
        queues here as int64 arrays, restored rows straight from their
        own): ``index`` maps URL to position in the checkpoint's URL
        table and grows by any URL this frontier holds that it lacks, so
        ``list(index)`` afterwards is the table :meth:`restore` needs.

        The contract is exact: ``restore(snapshot(index), list(index))``
        on a fresh frontier of the same class must reproduce the
        identical pop sequence, operation counters and peak occupancy.
        """

    @abstractmethod
    def restore(self, state: dict, table: Sequence[str]) -> None:
        """Load a :meth:`snapshot` into this (fresh, empty) frontier.

        ``table`` is the checkpoint's URL table, already interned.  The
        integer columns are checked by
        :func:`~repro.core.candidate.checked_columns`, as arrays.
        """

    def _restore_counters(self, state: dict) -> None:
        self.pushes = state["pushes"]
        self.pops = state["pops"]
        self._peak_size = state["peak_size"]

    def _counters_dict(self) -> dict:
        return {"pushes": self.pushes, "pops": self.pops, "peak_size": self._peak_size}

    def _check_kind(self, state: dict, kind: str) -> None:
        if state.get("kind") != kind:
            raise CheckpointError(
                f"checkpointed frontier kind {state.get('kind')!r} does not match "
                f"the strategy's {kind!r} frontier — resume with the same strategy"
            )


class FIFOFrontier(Frontier):
    """First-in first-out queue: pure discovery order.

    The queue is a ``deque`` of entries: a candidate pushed on its own,
    or :class:`_Rows` — the links of one page (:meth:`push_run`), or a
    restored queue, which stays in its checkpoint columns until it is
    popped.  :meth:`pop` builds the one candidate at the head entry's
    cursor.  A resumed crawl then pays per candidate it pops, not per
    candidate the queue holds; an evicted session that steps a few pages
    and is evicted again writes most of its queue straight back from the
    columns.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[Any] = deque()
        self._size = 0

    def push(self, candidate: Candidate) -> None:
        self._queue.append(candidate)
        self.pushes += 1
        size = self._size = self._size + 1
        if size > self._peak_size:
            self._peak_size = size

    def push_run(self, run: LinkRun) -> None:
        n = len(run.urls)
        if not n:
            return
        self._queue.append(_Rows(run))
        self.pushes += n
        size = self._size = self._size + n
        if size > self._peak_size:
            self._peak_size = size

    def pop(self) -> Candidate:
        queue = self._queue
        if not queue:
            raise FrontierError("pop from empty FIFO frontier")
        self._size -= 1
        self.pops += 1
        entry = queue[0]
        if type(entry) is not _Rows:
            return queue.popleft()
        # A pushed run's row built here, in the one frame of pop.
        left = entry.left
        at = entry.stop - left
        columns = entry.columns
        if columns is None:
            uids = entry.uids
            candidate = _new_candidate(Candidate, (
                entry.urls[at], entry.priority, entry.distance, entry.referrer,
                None if uids is None else uids[at],
            ))
        else:
            candidate = entry.row(at)
        if left > 1:
            entry.left = left - 1
        else:
            queue.popleft()
        return candidate

    def __len__(self) -> int:
        return self._size

    def snapshot(self, index: dict[str, int]) -> dict:
        columns = _snapshot_columns(_segments(self._queue), index)
        return {"kind": "fifo", **self._counters_dict(), **columns}

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, "fifo")
        columns = checked_columns(state, len(table))
        size = len(columns[0])
        self._queue = deque([_Rows.restored(table, columns, 0, size)] if size else [])
        self._size = size
        self._restore_counters(state)


class PriorityFrontier(Frontier):
    """Max-priority queue with FIFO order within equal priorities: a
    bucket queue.

    Each priority has its own ``deque`` band in ``_bands``, keyed by
    ``-priority``, and ``_keys`` is a heap of the keys of the non-empty
    bands.  Two candidates pushed with the same priority pop in push
    order — the behaviour the paper's two-band soft-focused queue needs
    for its results to be deterministic.  A band's entries are
    candidates and :class:`_Rows` (a page's links, a restored band), as
    in :class:`FIFOFrontier`.

    A snapshot writes the queue in pop order, band by band, with each
    row's ``tiebreak`` its rank, under the frontier's push ``counter``
    (never reset by pops, so it stays above every rank): sorted rows
    are a valid heap, so the heap frontier of earlier releases reads
    these files too.  :meth:`restore` takes the rows in *any* order —
    it sorts them by ``(neg_priority, tiebreak)``, which is how it reads
    the heap-layout files those releases wrote — and keeps each band's
    rows as one :class:`_Rows` entry until they are popped.
    """

    #: The ``kind`` a snapshot is written and restored under.
    _KIND = "priority"

    def __init__(self) -> None:
        super().__init__()
        self._bands: dict[int, deque[Any]] = {}
        self._keys: list[int] = []
        self._size = 0
        self._counter = 0

    def push(self, candidate: Candidate) -> None:
        self._append(candidate)
        self.pushes += 1
        size = self._size + 1
        self._size = size
        if size > self._peak_size:
            self._peak_size = size

    def _append(self, candidate: Candidate) -> None:
        """Queue ``candidate`` at the tail of its band, opening the band
        if the queue has none for its priority."""
        key = -candidate.priority
        band = self._bands.get(key)
        if band is None:
            band = self._bands[key] = deque()
            heapq.heappush(self._keys, key)
        band.append(candidate)
        self._counter += 1

    def push_run(self, run: LinkRun) -> None:
        n = len(run.urls)
        if not n:
            return
        key = -run.priority
        band = self._bands.get(key)
        if band is None:
            band = self._bands[key] = deque()
            heapq.heappush(self._keys, key)
        band.append(_Rows(run))
        self._counter += n
        self.pushes += n
        size = self._size = self._size + n
        if size > self._peak_size:
            self._peak_size = size

    def pop(self) -> Candidate:
        keys = self._keys
        if not keys:
            raise FrontierError("pop from empty priority frontier")
        self._size -= 1
        self.pops += 1
        band = self._bands[keys[0]]
        entry = band[0]
        if type(entry) is not _Rows:
            candidate = entry
        else:
            # A pushed run's row built here, in the one frame of pop.
            left = entry.left
            at = entry.stop - left
            columns = entry.columns
            if columns is None:
                uids = entry.uids
                candidate = _new_candidate(Candidate, (
                    entry.urls[at], entry.priority, entry.distance, entry.referrer,
                    None if uids is None else uids[at],
                ))
            else:
                candidate = entry.row(at)
            if left > 1:
                entry.left = left - 1
                return candidate
        band.popleft()
        if not band:
            del self._bands[heapq.heappop(keys)]
        return candidate

    def __len__(self) -> int:
        return self._size

    def _live(self, band: deque[Any]) -> Collection[Any]:
        """The entries of ``band`` a snapshot writes: all of them."""
        return band

    def snapshot(self, index: dict[str, int]) -> dict:
        keys = sorted(self._keys)
        segments: list[Any] = []
        counts: list[int] = []
        for key in keys:
            band = _segments(self._live(self._bands[key]))
            segments += band
            counts.append(sum(s.left if type(s) is _Rows else len(s[0]) for s in band))
        columns = _snapshot_columns(segments, index)
        return {
            "kind": self._KIND,
            **self._counters_dict(),
            "counter": self._counter,
            "neg_priority": np.repeat(np.array(keys, dtype=np.int64), counts),
            "tiebreak": np.arange(len(columns["u"]), dtype=np.int64),
            **columns,
        }

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, self._KIND)
        u, p, d, r = checked_columns(state, len(table))
        size = len(u)
        neg_priority = int_column(state, "neg_priority", size)
        tiebreak = int_column(state, "tiebreak", size)
        counter = state["counter"]
        if type(counter) is not int or counter < size:
            raise CheckpointError(
                f"push counter {counter!r} is below the {size} queued candidates"
            )
        if (tiebreak != np.arange(size)).any() or (neg_priority[1:] < neg_priority[:-1]).any():
            # Not in pop order (a heap-layout file): sort the rows.
            order = np.lexsort((tiebreak, neg_priority))
            neg_priority, tiebreak = neg_priority[order], tiebreak[order]
            same = (neg_priority[1:] == neg_priority[:-1]) & (tiebreak[1:] == tiebreak[:-1])
            if same.any():
                raise CheckpointError("two frontier rows share a (neg_priority, tiebreak) pair")
            u, p, d, r = u[order], p[order], d[order], r[order]
        columns = (u, p, d, r)
        # Each band is a run of equal keys in the sorted rows.
        starts = [0, *(np.flatnonzero(neg_priority[1:] != neg_priority[:-1]) + 1).tolist()]
        self._keys = neg_priority[starts].tolist() if size else []
        bounds = [*starts, size]
        self._bands = {
            key: deque([_Rows.restored(table, columns, start, stop)])
            for key, start, stop in zip(self._keys, bounds, bounds[1:])
        }
        self._size = size
        self._counter = counter
        self._restore_counters(state)


class ReprioritizableFrontier(PriorityFrontier):
    """Priority frontier whose queued URLs can be re-prioritized in place.

    Needed by strategies that revise their opinion of a URL *after*
    enqueueing it — the distiller of the original focused-crawling system
    ("the priority values of URLs identified as hubs and their immediate
    neighbors are raised", paper §2.1) and backlink-count ordering (Cho
    et al.).  The queue is :class:`PriorityFrontier`'s bands plus
    ``_current``, the live candidate of each queued URL.
    ``update_priority`` appends a copy with the new priority to its new
    band and leaves the old entry behind as a *tombstone*, which ``pop``
    discards when it reaches the head of its band (it is no longer its
    URL's ``_current``) — updates are O(1), no re-sort ever.  Pop order
    is ``(-priority, order of the last push or update)``.  When
    tombstones outnumber live entries the bands are compacted in
    O(queued), so memory stays bounded at twice the live queue even
    under pathological update rates.

    A snapshot writes only the live entries; a restore builds every
    candidate at once (``_current`` holds them), so it keeps no head.
    Unlike the simpler frontiers, a URL can only be queued once here —
    the class keys its bookkeeping by URL.
    """

    _KIND = "reprioritizable"

    #: Compact only past this many tombstones, so small frontiers never
    #: pay the rebuild.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        super().__init__()
        self._current: dict[str, Candidate] = {}
        self._stale = 0

    def push(self, candidate: Candidate) -> None:
        url = candidate.url
        if url in self._current:
            raise FrontierError(f"{url!r} is already queued; use update_priority")
        # A copy of its own: pop tells a live entry from a tombstone by
        # identity, and the caller may push an object that is one.
        candidate = self._current[url] = new_candidate(candidate)
        super().push(candidate)

    def update_priority(self, url: str, priority: int) -> bool:
        """Re-prioritize a queued URL; returns False if it is not queued."""
        stale = self._current.get(url)
        if stale is None:
            return False
        if stale.priority != priority:
            candidate = self._current[url] = stale._replace(priority=priority)
            self._append(candidate)
            self._stale += 1
            if self._stale > self._COMPACT_MIN and self._stale > len(self._current):
                self._compact()
        return True

    # Its bands hold candidates only: a run is pushed candidate by candidate.
    push_run = Frontier.push_run

    def _live(self, band: deque[Candidate]) -> list[Candidate]:
        current = self._current
        return [candidate for candidate in band if current.get(candidate.url) is candidate]

    def _compact(self) -> None:
        """Drop every tombstone by rebuilding the bands from live entries.

        O(queued); each band keeps its live entries in their order, so
        pop order is untouched — only dead weight goes.
        """
        live = ((key, deque(self._live(band))) for key, band in self._bands.items())
        self._bands = {key: band for key, band in live if band}
        self._keys, self._stale = sorted(self._bands), 0

    @property
    def stale_entries(self) -> int:
        """Tombstoned entries awaiting lazy deletion/compaction."""
        return self._stale

    def priority_of(self, url: str) -> int | None:
        """Current priority of a queued URL, or None."""
        candidate = self._current.get(url)
        return None if candidate is None else candidate.priority

    def __contains__(self, url: str) -> bool:
        return url in self._current

    def pop(self) -> Candidate:
        current = self._current
        keys, bands = self._keys, self._bands
        while keys:
            band = bands[keys[0]]
            candidate = band.popleft()
            if not band:
                del bands[heapq.heappop(keys)]
            if current.get(candidate.url) is candidate:
                del current[candidate.url]
                self._size -= 1
                self.pops += 1
                return candidate
            # A tombstone superseded by update_priority — discard it.
            self._stale -= 1
        raise FrontierError("pop from empty reprioritizable frontier")

    def restore(self, state: dict, table: Sequence[str]) -> None:
        super().restore(state, table)
        for key, (rows,) in self._bands.items():
            self._bands[key] = deque(map(new_candidate, zip(*rows.rows(), repeat(None))))
        self._current = {c.url: c for band in self._bands.values() for c in band}
        if len(self._current) != self._size:
            raise CheckpointError("two frontier rows queue the same URL")
        self._stale = 0
