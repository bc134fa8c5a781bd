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

Heap entries are plain ``(-priority, tiebreak, candidate)`` tuples, so
every ``heappush``/``heappop`` comparison runs in C.  The ``tiebreak``
is a per-frontier monotonic counter: it is unique, so two entries always
order on ``(-priority, tiebreak)`` and the candidate element is *never*
compared — pop order within a priority band is push order, identically
on every Python version.  The golden-trace suite (``tests/golden``)
pins that ordering byte-for-byte.

:class:`ReprioritizableFrontier` reprioritizes with lazy deletion: an
update pushes a fresh entry in O(log n) and *tombstones* the stale one,
which pop discards when it surfaces.  Tombstones are compacted once they
outnumber live entries, bounding the heap at twice the live size.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from collections.abc import Collection, Sequence
from operator import itemgetter
from typing import Any

from repro.core.candidate import (
    FIELDS,
    Candidate,
    candidate_from_dict,
    candidate_to_dict,
    candidates_from_columns,
    candidates_to_columns,
    checked_columns,
    int_column,
    new_candidate,
    url_columns,
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

#: Heap entries of the priority frontiers: ``(-priority, tiebreak,
#: candidate)``.  The tiebreak counter is unique per frontier, so tuple
#: comparison never reaches the candidate.
_HeapEntry = tuple

#: A :class:`FIFOFrontier` with no restored head left.
_NO_HEAD: tuple[list[str], list[int], list[int], list[str | None]] = ([], [], [], [])

#: A heap entry's ``-priority``, tiebreak and candidate, as C callables.
_NEG_PRIORITY, _TIEBREAK, _CANDIDATE = map(itemgetter, range(3))


def _heap_columns(entries: Collection[_HeapEntry], index: dict[str, int]) -> dict:
    """Heap entries as ``neg_priority`` / ``tiebreak`` + candidate columns
    (transposed by ``map``, as :data:`~repro.core.candidate.FIELDS` says why)."""
    return {
        "neg_priority": list(map(_NEG_PRIORITY, entries)),
        "tiebreak": list(map(_TIEBREAK, entries)),
        **candidates_to_columns(list(map(_CANDIDATE, entries)), index),
    }


def _heap_entries(state: dict, table: Sequence[str]) -> list[_HeapEntry]:
    """Inverse of :func:`_heap_columns`, in the order written."""
    candidates = candidates_from_columns(state, table)
    return list(
        zip(
            int_column(state, "neg_priority", len(candidates)),
            int_column(state, "tiebreak", len(candidates)),
            candidates,
        )
    )


class Frontier(ABC):
    """Common interface of the URL queue implementations.

    Every implementation keeps two always-on operation counters —
    ``pushes`` and ``pops`` — cheap enough to maintain unconditionally
    and the raw material of the observability layer's frontier gauges
    (:mod:`repro.obs`).  Each ``push`` counts itself and raises
    ``_peak_size`` inline, from its own container's C-level ``len``;
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

    def snapshot(self, index: dict[str, int]) -> dict:
        """Serialisable state for checkpointing, as columns.

        Candidates are written through
        :func:`~repro.core.candidate.candidates_to_columns`: ``index``
        maps URL to position in the checkpoint's URL table and grows by
        any URL this frontier holds that it lacks, so ``list(index)``
        afterwards is the table :meth:`restore` needs.

        The contract is exact: ``restore(snapshot(index), list(index))``
        on a fresh frontier of the same class must reproduce the
        identical pop sequence, operation counters and peak occupancy.
        In-memory frontiers implement this; wrappers holding external
        resources (spilling) raise
        :class:`~repro.errors.CheckpointError`.
        """
        raise CheckpointError(f"{type(self).__name__} does not support checkpointing")

    def restore(self, state: dict, table: Sequence[str]) -> None:
        """Load a :meth:`snapshot` into this (fresh, empty) frontier.

        ``table`` is the checkpoint's URL table, already interned.
        """
        raise CheckpointError(f"{type(self).__name__} does not support checkpointing")

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

    A restored queue stays in its checkpoint columns — the *head* — until
    it is popped: :meth:`restore` checks the columns whole and keeps them
    with a cursor, :meth:`pop` builds the one candidate at the cursor,
    and :meth:`push` appends behind the head as usual.  A resumed crawl
    then pays per candidate it pops, not per candidate the queue holds;
    an evicted session that steps a few pages and is evicted again
    writes most of its queue straight back from the columns.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queue: deque[Candidate] = deque()
        #: The restored head as columns of URLs, priorities, distances
        #: and referrers, and how many of them are still unpopped (the
        #: cursor is ``len(urls) - _head_left``).
        self._head: tuple[list[str], list[int], list[int], list[str | None]] = _NO_HEAD
        self._head_left = 0

    def push(self, candidate: Candidate) -> None:
        queue = self._queue
        queue.append(candidate)
        self.pushes += 1
        if len(queue) + self._head_left > self._peak_size:
            self._peak_size = len(queue) + self._head_left

    def pop(self) -> Candidate:
        left = self._head_left
        if left:
            urls, priorities, distances, referrers = self._head
            at = len(urls) - left
            self._head_left = left - 1
            if left == 1:
                self._head = _NO_HEAD
            self.pops += 1
            return new_candidate((urls[at], priorities[at], distances[at], referrers[at], None))
        if not self._queue:
            raise FrontierError("pop from empty FIFO frontier")
        self.pops += 1
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue) + self._head_left

    def snapshot(self, index: dict[str, int]) -> dict:
        # The unpopped head, then the pushed queue: the order pop takes.
        urls, priorities, distances, referrers = self._head
        at = len(urls) - self._head_left
        head: list[list[Any]] = [urls[at:], priorities[at:], distances[at:], referrers[at:]]
        for column, field in zip(head, FIELDS):
            column += map(field, self._queue)
        return {"kind": "fifo", **self._counters_dict(), **url_columns(*head, index)}

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, "fifo")
        u, p, d, r = checked_columns(state, len(table))
        self._queue = deque()
        self._head = (
            list(map(table.__getitem__, u)),
            p,
            d,
            list(map([*table, None].__getitem__, r)),
        )
        self._head_left = len(u)
        self._restore_counters(state)


class PriorityFrontier(Frontier):
    """Max-priority queue with FIFO order within equal priorities.

    A monotonically increasing insertion counter serves as the tie
    breaker, so two candidates pushed with the same priority pop in push
    order — the behaviour the paper's two-band soft-focused queue needs
    for its results to be deterministic.
    """

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[_HeapEntry] = []
        self._counter = 0

    def push(self, candidate: Candidate) -> None:
        heap = self._heap
        counter = self._counter
        self._counter = counter + 1
        heapq.heappush(heap, (-candidate.priority, counter, candidate))
        self.pushes += 1
        if len(heap) > self._peak_size:
            self._peak_size = len(heap)

    def pop(self) -> Candidate:
        if not self._heap:
            raise FrontierError("pop from empty priority frontier")
        self.pops += 1
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)

    def snapshot(self, index: dict[str, int]) -> dict:
        # Heap entries are serialised in their internal (heap-ordered)
        # list layout, tiebreaks included, so a restore re-creates the
        # exact pop sequence without re-heapifying.
        return {
            "kind": "priority",
            **self._counters_dict(),
            "counter": self._counter,
            **_heap_columns(self._heap, index),
        }

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, "priority")
        self._heap = _heap_entries(state, table)
        self._counter = state["counter"]
        self._restore_counters(state)


class ReprioritizableFrontier(Frontier):
    """Priority frontier whose queued URLs can be re-prioritized in place.

    Needed by strategies that revise their opinion of a URL *after*
    enqueueing it — the distiller of the original focused-crawling system
    ("the priority values of URLs identified as hubs and their immediate
    neighbors are raised", paper §2.1) and backlink-count ordering (Cho
    et al.).  Implemented with lazy deletion: ``update_priority`` pushes
    a fresh heap entry and tombstones the stale one, which ``pop``
    discards when it reaches the heap top — updates are O(log n), pops
    amortised O(log n), no re-sort ever.  When tombstones outnumber live
    entries the heap is compacted in O(live), so memory stays bounded at
    twice the live queue even under pathological update rates.

    Unlike the simpler frontiers, a URL can only be queued once here —
    the class keys its bookkeeping by URL.
    """

    #: Compact only past this many tombstones, so small frontiers never
    #: pay the rebuild.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[_HeapEntry] = []
        self._counter = 0
        self._current: dict[str, _HeapEntry] = {}
        self._stale = 0

    def push(self, candidate: Candidate) -> None:
        url = candidate.url
        if url in self._current:
            raise FrontierError(f"{url!r} is already queued; use update_priority")
        counter = self._counter
        self._counter = counter + 1
        entry = (-candidate.priority, counter, candidate)
        self._current[url] = entry
        heapq.heappush(self._heap, entry)
        self.pushes += 1
        if len(self._current) > self._peak_size:
            self._peak_size = len(self._current)

    def update_priority(self, url: str, priority: int) -> bool:
        """Re-prioritize a queued URL; returns False if it is not queued."""
        stale = self._current.get(url)
        if stale is None:
            return False
        if -stale[0] == priority:
            return True  # no change needed
        candidate = stale[2]._replace(priority=priority)
        counter = self._counter
        self._counter = counter + 1
        entry = (-priority, counter, candidate)
        self._current[url] = entry
        heapq.heappush(self._heap, entry)
        self._stale += 1
        if self._stale > self._COMPACT_MIN and self._stale > len(self._current):
            self._compact()
        return True

    def _compact(self) -> None:
        """Drop every tombstone by rebuilding the heap from live entries.

        O(live); heapify keeps the ``(-priority, tiebreak)`` order, so
        pop order is untouched — only dead weight goes.
        """
        self._heap = list(self._current.values())
        heapq.heapify(self._heap)
        self._stale = 0

    @property
    def stale_entries(self) -> int:
        """Tombstoned heap entries awaiting lazy deletion/compaction."""
        return self._stale

    def priority_of(self, url: str) -> int | None:
        """Current priority of a queued URL, or None."""
        entry = self._current.get(url)
        if entry is None:
            return None
        return -entry[0]

    def __contains__(self, url: str) -> bool:
        return url in self._current

    def pop(self) -> Candidate:
        heap = self._heap
        current = self._current
        while heap:
            entry = heapq.heappop(heap)
            candidate = entry[2]
            if current.get(candidate.url) is entry:
                del current[candidate.url]
                self.pops += 1
                return candidate
            # A tombstone superseded by update_priority — discard it.
            self._stale -= 1
        raise FrontierError("pop from empty reprioritizable frontier")

    def __len__(self) -> int:
        return len(self._current)

    def snapshot(self, index: dict[str, int]) -> dict:
        # Only live entries are serialised — tombstones are dead weight
        # whose omission cannot change pop order, because the live
        # ``(-priority, tiebreak)`` pairs are unique and total-ordered.
        return {
            "kind": "reprioritizable",
            **self._counters_dict(),
            "counter": self._counter,
            **_heap_columns(self._current.values(), index),
        }

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, "reprioritizable")
        heap = _heap_entries(state, table)
        self._current = {entry[2].url: entry for entry in heap}
        heapq.heapify(heap)
        self._heap = heap
        self._counter = state["counter"]
        self._stale = 0
        self._restore_counters(state)
