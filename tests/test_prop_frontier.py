"""Property-based tests for the frontier implementations."""

import heapq
import json
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.candidate import (
    LinkRun,
    candidate_from_dict,
    candidate_to_dict,
    candidates_from_columns,
    candidates_to_columns,
    stamp_uid,
)
from repro.core.frontier import (
    Candidate,
    FIFOFrontier,
    PriorityFrontier,
    ReprioritizableFrontier,
)
from repro.core.politeness import HostQueueFrontier
from repro.errors import CheckpointError, FrontierError

from conftest import (
    assert_runs_push_like_candidates,
    frontier_operations,
    frontier_roundtrip,
    plain_columns,
)

pushes = st.lists(
    st.tuples(st.integers(min_value=0, max_value=999), st.integers(min_value=-5, max_value=5)),
    max_size=60,
)

#: Interleaved operations: push (url_id, priority) or pop (None).
operations = st.lists(
    st.one_of(
        st.tuples(st.integers(min_value=0, max_value=999), st.integers(min_value=-5, max_value=5)),
        st.none(),
    ),
    max_size=80,
)


def candidate(url_id: int, priority: int) -> Candidate:
    return Candidate(url=f"http://p{url_id}.example/", priority=priority)


class TestConservation:
    @given(pushes)
    def test_fifo_returns_exactly_what_was_pushed(self, items):
        frontier = FIFOFrontier()
        for url_id, priority in items:
            frontier.push(candidate(url_id, priority))
        popped = [frontier.pop() for _ in range(len(items))]
        assert Counter(c.url for c in popped) == Counter(
            f"http://p{url_id}.example/" for url_id, _ in items
        )
        assert not frontier

    @given(pushes)
    def test_priority_returns_exactly_what_was_pushed(self, items):
        frontier = PriorityFrontier()
        for url_id, priority in items:
            frontier.push(candidate(url_id, priority))
        popped = [frontier.pop() for _ in range(len(items))]
        assert Counter(c.url for c in popped) == Counter(
            f"http://p{url_id}.example/" for url_id, _ in items
        )


class TestOrdering:
    @given(pushes)
    def test_fifo_preserves_order(self, items):
        frontier = FIFOFrontier()
        for url_id, priority in items:
            frontier.push(candidate(url_id, priority))
        popped = [frontier.pop().url for _ in range(len(items))]
        assert popped == [f"http://p{url_id}.example/" for url_id, _ in items]

    @given(pushes)
    def test_priority_pops_in_nonincreasing_priority(self, items):
        frontier = PriorityFrontier()
        for url_id, priority in items:
            frontier.push(candidate(url_id, priority))
        priorities = [frontier.pop().priority for _ in range(len(items))]
        assert priorities == sorted(priorities, reverse=True)

    @given(pushes)
    def test_priority_fifo_within_band(self, items):
        frontier = PriorityFrontier()
        arrival: dict[str, int] = {}
        for order, (url_id, priority) in enumerate(items):
            c = Candidate(url=f"http://p{order}-{url_id}.example/", priority=priority)
            arrival[c.url] = order
            frontier.push(c)
        popped = [frontier.pop() for _ in range(len(items))]
        for earlier, later in zip(popped, popped[1:]):
            if earlier.priority == later.priority:
                assert arrival[earlier.url] < arrival[later.url]


#: Arbitrary candidates, including the sparse defaults the wire format
#: omits and URL-ish referrers.
candidates = st.builds(
    Candidate,
    url=st.integers(min_value=0, max_value=9999).map(lambda n: f"http://h{n}.example/p"),
    priority=st.integers(min_value=-100, max_value=100),
    distance=st.integers(min_value=0, max_value=50),
    referrer=st.one_of(
        st.none(),
        st.integers(min_value=0, max_value=9999).map(lambda n: f"http://h{n}.example/r"),
    ),
)


class TestCandidateSerialization:
    """The one shared round-trip every persister uses (frontier
    snapshots, checkpoint state, spill files)."""

    @given(candidates)
    def test_round_trip_is_identity(self, c):
        assert candidate_from_dict(candidate_to_dict(c)) == c

    @given(candidates)
    def test_round_trip_survives_json(self, c):
        # The actual persistence path serialises through JSON text.
        wire = json.dumps(candidate_to_dict(c), separators=(",", ":"))
        assert candidate_from_dict(json.loads(wire)) == c

    @given(candidates)
    def test_wire_form_is_sparse(self, c):
        entry = candidate_to_dict(c)
        assert entry["u"] == c.url
        assert ("p" in entry) == bool(c.priority)
        assert ("d" in entry) == bool(c.distance)
        assert ("r" in entry) == (c.referrer is not None)


#: A small pool, so that batches share URLs and referrers; one entry is
#: not ASCII (checkpoints are UTF-8 JSON, not escaped ASCII by contract).
_POOL = [f"http://h{n % 5}.example/p{n}" for n in range(24)] + ["http://ไทย.example/หน้า"]
pool_urls = st.sampled_from(_POOL)

batches = st.lists(
    st.builds(
        Candidate,
        url=pool_urls,
        priority=st.integers(min_value=-100, max_value=100),
        distance=st.integers(min_value=0, max_value=50),
        referrer=st.one_of(st.none(), pool_urls),
        uid=st.one_of(st.none(), st.integers(min_value=0, max_value=10**6)),
    ),
    max_size=40,
)

#: The part of the URL table that exists before the batch is written —
#: in a checkpoint, the ``scheduled`` set.  Drawn independently of the
#: batch, so some batch URLs are in it and some are not.
tables = st.lists(pool_urls, unique=True, max_size=len(_POOL))


class TestCandidateColumns:
    """The batch form: columns of positions in a URL table."""

    @given(batches, tables)
    def test_round_trip_is_identity(self, batch, scheduled):
        index = {url: position for position, url in enumerate(scheduled)}
        columns = candidates_to_columns(batch, index)
        table = list(index)
        assert table[: len(scheduled)] == scheduled  # the table only ever grows
        restored = candidates_from_columns(json.loads(json.dumps(columns)), table)
        assert restored == batch
        assert [type(c) for c in restored] == [Candidate] * len(batch)
        assert all(c.uid is None for c in restored)  # hints are not serialised

    @given(batches)
    def test_every_url_is_in_the_table_once(self, batch):
        index: dict[str, int] = {}
        columns = candidates_to_columns(batch, index)
        named = {c.url for c in batch} | {c.referrer for c in batch if c.referrer is not None}
        assert set(index) == named and sorted(index.values()) == list(range(len(named)))
        assert [p == -1 for p in columns["r"]] == [c.referrer is None for c in batch]

    def test_empty_batch(self):
        assert candidates_to_columns([], {}) == {"u": [], "p": [], "d": [], "r": []}
        assert candidates_from_columns({"u": [], "p": [], "d": [], "r": []}, []) == []

    @pytest.mark.parametrize(
        "columns",
        [
            {"u": [0, 1], "p": [0], "d": [0, 0], "r": [-1, -1]},  # ragged
            {"u": [0], "p": [0], "d": [0]},  # a column missing
            {"u": [2], "p": [0], "d": [0], "r": [-1]},  # past the table
            {"u": [0], "p": [0], "d": [0], "r": [2]},
            {"u": [-1], "p": [0], "d": [0], "r": [-1]},  # would wrap to the last entry
            {"u": [0], "p": [0], "d": [0], "r": [-2]},
            {"u": ["0"], "p": [0], "d": [0], "r": [-1]},  # not integers
            {"u": [0], "p": [None], "d": [0], "r": [-1]},
            {"u": [True], "p": [0], "d": [0], "r": [-1]},
            {"u": 0, "p": 0, "d": 0, "r": 0},  # not columns at all
        ],
    )
    def test_malformed_columns_are_checkpoint_errors(self, columns):
        with pytest.raises(CheckpointError):
            candidates_from_columns(columns, ["http://a.example/", "http://b.example/"])


#: push (url, priority, referrer) / pop (None) / re-prioritise (url, int).
snapshot_operations = st.lists(
    st.one_of(
        st.tuples(pool_urls, st.integers(min_value=-3, max_value=3), st.one_of(st.none(), pool_urls)),
        st.none(),
        st.tuples(pool_urls, st.integers(min_value=-3, max_value=3)),
    ),
    max_size=60,
)


class TestSnapshotRoundTrip:
    """``restore(snapshot())`` is exact for every checkpointable frontier:
    the same pops in the same order, the same counters — and the same
    again after both sides take further pushes, which is what pins the
    tiebreak counter and the host rotation."""

    @pytest.mark.parametrize(
        "make", [FIFOFrontier, PriorityFrontier, ReprioritizableFrontier, HostQueueFrontier]
    )
    @given(ops=snapshot_operations, later=batches)
    @settings(max_examples=60, deadline=None)
    def test_restored_frontier_is_indistinguishable(self, make, ops, later):
        frontier = make()
        queued: set[str] = set()
        for op in ops:
            if op is None:
                if frontier:
                    queued.discard(frontier.pop().url)
            elif len(op) == 2:
                if make is ReprioritizableFrontier:
                    frontier.update_priority(*op)
            elif op[0] not in queued:  # the reprioritizable frontier queues a URL once
                queued.add(op[0])
                frontier.push(stamp_uid(Candidate(op[0], op[1], 0, op[2]), 7))

        restored = frontier_roundtrip(frontier)
        for name in ("pushes", "pops", "peak_size"):
            assert getattr(restored, name) == getattr(frontier, name), name
        assert len(restored) == len(frontier)
        assert getattr(restored, "_counter", None) == getattr(frontier, "_counter", None)

        for candidate in later:
            if candidate.url not in queued:
                queued.add(candidate.url)
                frontier.push(candidate)
                restored.push(candidate)
        assert [restored.pop() for _ in range(len(restored))] == [
            frontier.pop() for _ in range(len(frontier))
        ]
        assert (restored.pushes, restored.pops) == (frontier.pushes, frontier.pops)


class TestInterleaved:
    @given(operations)
    def test_size_accounting_under_interleaving(self, ops):
        frontier = PriorityFrontier()
        expected_size = 0
        peak = 0
        for op in ops:
            if op is None:
                if expected_size:
                    frontier.pop()
                    expected_size -= 1
            else:
                frontier.push(candidate(*op))
                expected_size += 1
                peak = max(peak, expected_size)
            assert len(frontier) == expected_size
        assert frontier.peak_size == peak


def reference_columns(candidates, index):
    """``candidates_to_columns`` as it was written before it mapped in C:
    one ``setdefault`` per URL, the URLs first, then the referrers."""
    if not candidates:
        return {"u": [], "p": [], "d": [], "r": []}
    urls, priorities, distances, referrers, _ = zip(*candidates)
    position = index.setdefault
    return {
        "u": [position(url, len(index)) for url in urls],
        "p": list(priorities),
        "d": list(distances),
        "r": [-1 if url is None else position(url, len(index)) for url in referrers],
    }


class TestColumnsEqualTheReference:
    @given(batches, tables)
    def test_candidates_to_columns_equals_the_comprehension(self, batch, scheduled):
        """Missing URLs, missing referrers and ``None`` referrers alike:
        the same columns, and the index grown in the same order."""
        index = {url: position for position, url in enumerate(scheduled)}
        reference_index = dict(index)
        assert candidates_to_columns(batch, index) == reference_columns(batch, reference_index)
        assert list(index.items()) == list(reference_index.items())

    @given(batches, tables)
    def test_candidates_from_columns_inverts_the_reference(self, batch, scheduled):
        index = {url: position for position, url in enumerate(scheduled)}
        columns = reference_columns(batch, index)
        assert candidates_from_columns(columns, list(index)) == batch


class EagerFIFO:
    """The FIFO frontier as it was before its restored head stayed in
    columns: a restore rebuilds every queued candidate up front."""

    def __init__(self):
        self.queue = deque()
        self.pushes = self.pops = self.peak_size = 0

    def push(self, candidate):
        self.queue.append(candidate)
        self.pushes += 1
        self.peak_size = max(self.peak_size, len(self.queue))

    def pop(self):
        self.pops += 1
        return self.queue.popleft()

    def __len__(self):
        return len(self.queue)

    def snapshot(self, index):
        counters = {"pushes": self.pushes, "pops": self.pops, "peak_size": self.peak_size}
        return {"kind": "fifo", **counters, **reference_columns(list(self.queue), index)}

    def restore(self, state, table):
        self.queue = deque(candidates_from_columns(state, table))
        self.pushes, self.pops, self.peak_size = state["pushes"], state["pops"], state["peak_size"]


#: push a candidate / pop / snapshot-and-restore (over a table that
#: starts with some "scheduled" URLs).
fifo_operations = st.lists(
    st.one_of(
        st.builds(
            Candidate,
            url=pool_urls,
            priority=st.integers(min_value=-3, max_value=3),
            distance=st.integers(min_value=0, max_value=3),
            referrer=st.one_of(st.none(), pool_urls),
            uid=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
        ),
        st.just("pop"),
        tables,
    ),
    max_size=80,
)


class TestLazyFifoHead:
    @given(fifo_operations)
    @settings(max_examples=200, deadline=None)
    def test_restored_then_driven_equals_the_eager_reference(self, ops):
        """Any interleaving of pushes, pops and snapshot/restore cycles —
        snapshots taken with the restored head untouched, part-popped,
        drained, or with pushes behind it — pops the same candidates and
        keeps the same counters and peak as the eager frontier; and each
        snapshot is the same columns over the same table."""
        lazy, eager = FIFOFrontier(), EagerFIFO()
        popped_lazy, popped_eager = [], []
        for op in ops:
            if op == "pop":
                if eager:
                    popped_lazy.append(lazy.pop())
                    popped_eager.append(eager.pop())
                else:
                    assert not lazy
            elif isinstance(op, list):
                index = {url: position for position, url in enumerate(op)}
                state = lazy.snapshot(index)
                reference_index = {url: position for position, url in enumerate(op)}
                assert plain_columns(state) == eager.snapshot(reference_index)
                assert list(index) == list(reference_index)
                lazy, eager = FIFOFrontier(), EagerFIFO()
                lazy.restore(state, list(index))
                eager.restore(state, list(index))
            else:
                lazy.push(op)
                eager.push(op)
            assert len(lazy) == len(eager)
            assert (lazy.pushes, lazy.pops, lazy.peak_size) == (
                eager.pushes, eager.pops, eager.peak_size,
            )
        while eager:
            popped_lazy.append(lazy.pop())
            popped_eager.append(eager.pop())
        assert [tuple(c) for c in popped_lazy] == [tuple(c) for c in popped_eager]
        assert not lazy
        with pytest.raises(FrontierError):
            lazy.pop()


class HeapPriority:
    """The priority frontier as it was before its bands: one binary heap
    of ``(-priority, tiebreak, candidate)`` entries, snapshotted in heap
    layout and restored as it reads, without a heapify."""

    def __init__(self):
        self.heap, self.counter = [], 0
        self.pushes = self.pops = self.peak_size = 0

    def push(self, candidate):
        heapq.heappush(self.heap, (-candidate.priority, self.counter, candidate))
        self.counter += 1
        self.pushes += 1
        self.peak_size = max(self.peak_size, len(self.heap))

    def pop(self):
        self.pops += 1
        return heapq.heappop(self.heap)[2]

    def __len__(self):
        return len(self.heap)

    def snapshot(self, index):
        counters = {"pushes": self.pushes, "pops": self.pops, "peak_size": self.peak_size}
        neg_priority, tiebreak, queued = zip(*self.heap) if self.heap else ((), (), ())
        return {
            "kind": "priority", **counters, "counter": self.counter,
            "neg_priority": list(neg_priority), "tiebreak": list(tiebreak),
            **reference_columns(list(queued), index),
        }

    def restore(self, state, table):
        queued = candidates_from_columns(state, table)
        plain = plain_columns(state)
        self.heap = list(zip(plain["neg_priority"], plain["tiebreak"], queued))
        self.counter = state["counter"]
        self.pushes, self.pops, self.peak_size = state["pushes"], state["pops"], state["peak_size"]


#: Few shared values, so bands fill; many distinct ones, so bands come
#: and go; and the extremes a checkpoint's int64 columns can hold.
any_priority = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1),
)

#: push a candidate / pop / snapshot on one side ("band" or "heap") and
#: restore both sides from it (over a table that starts with some
#: "scheduled" URLs).
priority_operations = st.lists(
    st.one_of(
        st.builds(
            Candidate,
            url=pool_urls,
            priority=any_priority,
            distance=st.integers(min_value=0, max_value=3),
            referrer=st.one_of(st.none(), pool_urls),
            uid=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
        ),
        st.just("pop"),
        st.tuples(st.sampled_from(["band", "heap"]), tables),
    ),
    max_size=100,
)


class TestBandsEqualTheHeap:
    @given(priority_operations)
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_equals_the_heap_reference(self, ops):
        """Pushes, pops and snapshot/restore cycles in any order, with any
        int priorities: the band frontier pops what the heap pops, and
        keeps the same ``pushes``, ``pops``, ``peak_size`` and ``len`` —
        across restores from the heap's own heap-layout columns, and
        across the heap reading the band frontier's pop-order ones."""
        bands, heap = PriorityFrontier(), HeapPriority()
        popped_bands, popped_heap = [], []
        for op in ops:
            if op == "pop":
                if heap:
                    popped_bands.append(bands.pop())
                    popped_heap.append(heap.pop())
                else:
                    assert not bands
            elif isinstance(op, Candidate):
                bands.push(op)
                heap.push(op)
            else:
                writer, scheduled = op
                index = {url: position for position, url in enumerate(scheduled)}
                state = (bands if writer == "band" else heap).snapshot(index)
                if writer == "band":
                    assert state["tiebreak"].tolist() == list(range(len(bands)))
                    assert state["counter"] >= len(bands)
                bands, heap = PriorityFrontier(), HeapPriority()
                bands.restore(state, list(index))
                heap.restore(state, list(index))
            assert len(bands) == len(heap)
            assert (bands.pushes, bands.pops, bands.peak_size) == (
                heap.pushes, heap.pops, heap.peak_size,
            )
        while heap:
            popped_bands.append(bands.pop())
            popped_heap.append(heap.pop())
        assert [tuple(c) for c in popped_bands] == [tuple(c) for c in popped_heap]
        assert not bands
        with pytest.raises(FrontierError):
            bands.pop()


class HeapReprioritizable:
    """The reprioritizable frontier as it was before it became bands: a
    lazy-deletion heap of ``(-priority, tiebreak, candidate)`` entries,
    ``current`` naming each queued URL's live entry, snapshotted in
    whatever order ``current`` holds them and heapified on restore."""

    def __init__(self, compact_min):
        self.heap, self.current, self.counter, self.stale = [], {}, 0, 0
        self.compact_min = compact_min
        self.pushes = self.pops = self.peak_size = 0

    def _file(self, candidate):
        entry = (-candidate.priority, self.counter, candidate)
        self.counter += 1
        self.current[candidate.url] = entry
        heapq.heappush(self.heap, entry)

    def push(self, candidate):
        if candidate.url in self.current:
            raise FrontierError(f"{candidate.url!r} is already queued")
        self._file(candidate)
        self.pushes += 1
        self.peak_size = max(self.peak_size, len(self.current))

    def update_priority(self, url, priority):
        stale = self.current.get(url)
        if stale is None:
            return False
        if -stale[0] != priority:
            self._file(stale[2]._replace(priority=priority))
            self.stale += 1
            if self.stale > self.compact_min and self.stale > len(self.current):
                self._compact()
        return True

    def _compact(self):
        self.heap = list(self.current.values())
        heapq.heapify(self.heap)
        self.stale = 0

    def priority_of(self, url):
        entry = self.current.get(url)
        return None if entry is None else -entry[0]

    def pop(self):
        while self.heap:
            entry = heapq.heappop(self.heap)
            if self.current.get(entry[2].url) is entry:
                del self.current[entry[2].url]
                self.pops += 1
                return entry[2]
            self.stale -= 1
        raise FrontierError("pop from empty reprioritizable frontier")

    def __len__(self):
        return len(self.current)

    def snapshot(self, index):
        counters = {"pushes": self.pushes, "pops": self.pops, "peak_size": self.peak_size}
        entries = list(self.current.values())
        return {
            "kind": "reprioritizable", **counters, "counter": self.counter,
            "neg_priority": [entry[0] for entry in entries],
            "tiebreak": [entry[1] for entry in entries],
            **reference_columns([entry[2] for entry in entries], index),
        }

    def restore(self, state, table):
        queued = candidates_from_columns(state, table)
        plain = plain_columns(state)
        self.heap = list(zip(plain["neg_priority"], plain["tiebreak"], queued))
        self.current = {entry[2].url: entry for entry in self.heap}
        heapq.heapify(self.heap)
        self.counter, self.stale = state["counter"], 0
        self.pushes, self.pops, self.peak_size = state["pushes"], state["pops"], state["peak_size"]


#: push a new candidate / push again an object pushed before, once its
#: URL has left the queue / update a pool URL or the n-th queued one /
#: pop / compact / snapshot on one side ("band" or "heap") and restore
#: both sides from it.
rerank_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.builds(
                Candidate,
                url=pool_urls,
                priority=any_priority,
                distance=st.integers(min_value=0, max_value=3),
                referrer=st.one_of(st.none(), pool_urls),
                uid=st.one_of(st.none(), st.integers(min_value=0, max_value=99)),
            ),
        ),
        st.tuples(st.just("again"), st.integers(min_value=0, max_value=99)),
        st.tuples(
            st.just("update"),
            st.one_of(pool_urls, st.integers(min_value=0, max_value=99)),
            any_priority,
        ),
        st.tuples(st.just("pop")),
        st.tuples(st.just("compact")),
        st.tuples(st.just("snapshot"), st.sampled_from(["band", "heap"]), tables),
    ),
    max_size=100,
)


class TestReRankBandsEqualTheHeap:
    @pytest.mark.parametrize("compact_min", [2, ReprioritizableFrontier._COMPACT_MIN])
    @given(ops=rerank_operations)
    @settings(max_examples=200, deadline=None)
    def test_any_interleaving_equals_the_heap_reference(self, compact_min, ops):
        """Pushes (a repeated URL is an error on both sides), updates,
        pops, compactions and snapshot/restore cycles in any order: the
        band frontier pops what the lazy-deletion heap pops, and keeps
        the same counters, tombstone count, ``priority_of``, membership
        and ``len`` — across restores from either side's snapshot."""

        class Bands(ReprioritizableFrontier):
            _COMPACT_MIN = compact_min

        bands, heap = Bands(), HeapReprioritizable(compact_min)
        pushed, popped_bands, popped_heap = [], [], []
        for op in ops:
            if op[0] == "again":
                gone = [c for c in pushed if c.url not in heap.current]
                if gone:
                    candidate = gone[op[1] % len(gone)]
                    bands.push(candidate)
                    heap.push(candidate)
            elif op[0] == "push":
                candidate = op[1]
                if candidate.url in heap.current:
                    with pytest.raises(FrontierError, match="already queued"):
                        bands.push(candidate)
                    with pytest.raises(FrontierError):
                        heap.push(candidate)
                else:
                    bands.push(candidate)
                    heap.push(candidate)
                    pushed.append(candidate)
            elif op[0] == "update":
                _, url, priority = op
                if isinstance(url, int):
                    queued = list(heap.current)
                    url = queued[url % len(queued)] if queued else "http://gone.example/"
                assert bands.update_priority(url, priority) == heap.update_priority(url, priority)
            elif op[0] == "pop":
                if heap:
                    popped_bands.append(bands.pop())
                    popped_heap.append(heap.pop())
                else:  # both drain their tombstones on the way
                    for frontier in (bands, heap):
                        with pytest.raises(FrontierError):
                            frontier.pop()
            elif op[0] == "compact":
                bands._compact()
                heap._compact()
            else:
                _, writer, scheduled = op
                index = {url: position for position, url in enumerate(scheduled)}
                state = (bands if writer == "band" else heap).snapshot(index)
                if writer == "band":
                    assert state["tiebreak"].tolist() == list(range(len(bands)))
                    assert state["counter"] >= len(bands)
                bands, heap = Bands(), HeapReprioritizable(compact_min)
                bands.restore(state, list(index))
                heap.restore(state, list(index))
            assert len(bands) == len(heap)
            assert (bands.pushes, bands.pops, bands.peak_size, bands.stale_entries) == (
                heap.pushes, heap.pops, heap.peak_size, heap.stale,
            )
            for url in _POOL:
                assert bands.priority_of(url) == heap.priority_of(url)
                assert (url in bands) == (url in heap.current)
        while heap:
            popped_bands.append(bands.pop())
            popped_heap.append(heap.pop())
        assert [tuple(c) for c in popped_bands] == [tuple(c) for c in popped_heap]
        assert not bands
        with pytest.raises(FrontierError):
            bands.pop()


class TestRunsPushLikeCandidates:
    """``push_run`` of a page's links ≡ pushing its candidates one by one."""

    @given(frontier_operations)
    @settings(max_examples=150, deadline=None)
    def test_fifo(self, operations):
        assert_runs_push_like_candidates(FIFOFrontier, operations)

    @given(frontier_operations)
    @settings(max_examples=150, deadline=None)
    def test_priority(self, operations):
        assert_runs_push_like_candidates(PriorityFrontier, operations)

    def test_a_partly_popped_run_snapshots_its_unpopped_rows(self):
        run = LinkRun([f"http://h.example/p{index}" for index in range(4)], 1, 2, "r", (5, 6, 7, 8))
        for frontier in (FIFOFrontier(), PriorityFrontier()):
            frontier.push_run(run)
            assert tuple(frontier.pop()) == ("http://h.example/p0", 1, 2, "r", 5)
            table: dict[str, int] = {}
            state = frontier.snapshot(table)
            assert [list(table)[position] for position in state["u"]] == [
                f"http://h.example/p{index}" for index in (1, 2, 3)
            ]
            assert [tuple(frontier.pop()) for _ in range(3)] == [
                (f"http://h.example/p{index}", 1, 2, "r", uid)
                for index, uid in ((1, 6), (2, 7), (3, 8))
            ]
