"""Property-based tests for the extended frontiers (spilling, host-queue,
reprioritizable) — conservation and discipline invariants under random
operation sequences.
"""

import heapq
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frontier import Candidate, ReprioritizableFrontier
from repro.core.politeness import HostQueueFrontier
from repro.core.spilling import (
    _REFILL_BATCH,
    SpillingFrontier,
    candidate_from_spill,
    spill_entry,
)
from repro.errors import FrontierError

from conftest import assert_runs_push_like_candidates, frontier_operations, frontier_roundtrip

pushes = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=400),  # url id
        st.integers(min_value=0, max_value=6),  # priority
        st.integers(min_value=0, max_value=5),  # host id
    ),
    max_size=80,
)


def candidate(url_id: int, priority: int, host_id: int) -> Candidate:
    return Candidate(url=f"http://h{host_id}.example/p{url_id}", priority=priority)


class TestSpillingConservation:
    @given(pushes, st.integers(min_value=2, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_everything_pushed_pops_once(self, items, limit):
        with SpillingFrontier(memory_limit=limit) as frontier:
            for url_id, priority, host_id in items:
                frontier.push(candidate(url_id, priority, host_id))
            assert len(frontier) == len(items)
            popped = [frontier.pop() for _ in range(len(items))]
            assert Counter(c.url for c in popped) == Counter(
                candidate(*item).url for item in items
            )
            assert len(frontier) == 0

    @given(pushes, st.integers(min_value=2, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_resident_set_bounded(self, items, limit):
        with SpillingFrontier(memory_limit=limit) as frontier:
            for url_id, priority, host_id in items:
                frontier.push(candidate(url_id, priority, host_id))
                assert frontier.resident_size <= limit

    @given(pushes)
    @settings(max_examples=30, deadline=None)
    def test_interleaved_push_pop(self, items):
        with SpillingFrontier(memory_limit=4) as frontier:
            pushed = popped = 0
            for index, item in enumerate(items):
                frontier.push(candidate(*item))
                pushed += 1
                if index % 3 == 2 and len(frontier):
                    frontier.pop()
                    popped += 1
            assert len(frontier) == pushed - popped


class HeapSpilling(SpillingFrontier):
    """The spilling frontier as it was before its resident set became
    bands: a heap of ``(-priority, counter, candidate)`` entries, sorted
    whole on every spill, its tail written to the same spill file."""

    def __init__(self, memory_limit: int) -> None:
        super().__init__(memory_limit)
        self.heap: list = []
        self.counter = 0

    def _file(self, candidate: Candidate) -> None:
        heapq.heappush(self.heap, (-candidate.priority, self.counter, candidate))
        self.counter += 1

    def push(self, candidate: Candidate) -> None:
        self._file(candidate)
        if len(self.heap) > self._limit:
            self._spill_coldest()
        self._peak_resident = max(self._peak_resident, len(self.heap))
        self.pushes += 1
        self._peak_size = max(self._peak_size, len(self))

    def pop(self) -> Candidate:
        if not self.heap and self._pending_on_disk:
            self._refill()
        if not self.heap:
            raise FrontierError("pop from empty spilling frontier")
        self.pops += 1
        return heapq.heappop(self.heap)[2]

    def __len__(self) -> int:
        return len(self.heap) + self._pending_on_disk

    @property
    def resident_size(self) -> int:
        return len(self.heap)

    def _spill_coldest(self) -> None:
        batch = max(1, self._limit // 10)
        self.heap.sort()
        victims = self.heap[-batch:]
        del self.heap[-batch:]
        heapq.heapify(self.heap)
        self._spill_file.seek(0, os.SEEK_END)
        for _, _, candidate in victims:
            self._spill_file.write(json.dumps(spill_entry(candidate), separators=(",", ":")) + "\n")
        self._spill_file.flush()
        self._pending_on_disk += batch
        self.spilled += batch

    def _refill(self) -> None:
        self._spill_file.seek(self._read_offset)
        loaded = 0
        while loaded < min(_REFILL_BATCH, self._limit):
            line = self._spill_file.readline()
            if not line:
                break
            self._read_offset = self._spill_file.tell()
            self._file(candidate_from_spill(json.loads(line)))
            loaded += 1
        self._pending_on_disk -= loaded
        self.reloaded += loaded


def spill_bytes(frontier: SpillingFrontier) -> bytes:
    with open(frontier._spill_path, "rb") as spilled:
        return spilled.read()


#: A memory limit, and two to six times that many operations: a push
#: (url id, priority index, referrer?) or, when the last field is 0, a
#: pop — so about five in six push, and every long enough run spills.
spill_runs = st.integers(min_value=2, max_value=40).flatmap(
    lambda limit: st.tuples(
        st.just(limit),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=400),
                st.integers(min_value=0, max_value=7),
                st.booleans(),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=2 * limit,
            max_size=6 * limit,
        ),
    )
)


class TestSpillBandsEqualTheHeap:
    @pytest.mark.parametrize("distinct", [1, 3, 8])
    @given(run=spill_runs)
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_equals_the_heap_reference(self, distinct, run):
        """Pushes and pops in any order, with 1, 3 or 8 distinct
        priorities: the band-resident spilling frontier pops what the
        heap-resident one pops, keeps the same counters and spill
        accounting, and writes the same spill file byte for byte."""
        limit, ops = run
        with SpillingFrontier(memory_limit=limit) as bands, HeapSpilling(limit) as heap:
            for op in ops:
                if not op[3]:
                    if heap:
                        assert tuple(bands.pop()) == tuple(heap.pop())
                    else:
                        assert not bands
                else:
                    url_id, level, referred, _ = op
                    referrer = f"http://r{url_id % 7}.example/" if referred else None
                    candidate = Candidate(
                        f"http://h{url_id % 5}.example/p{url_id}", level % distinct - 1,
                        url_id % 3, referrer,
                    )
                    bands.push(candidate)
                    heap.push(candidate)
                assert (len(bands), bands.resident_size) == (len(heap), heap.resident_size)
                assert (bands.pushes, bands.pops, bands.stats()) == (
                    heap.pushes, heap.pops, heap.stats(),
                )
            while heap:
                assert tuple(bands.pop()) == tuple(heap.pop())
            assert not bands
            assert spill_bytes(bands) == spill_bytes(heap)


class TestHostQueueProperties:
    @given(pushes)
    @settings(max_examples=40, deadline=None)
    def test_conservation(self, items):
        frontier = HostQueueFrontier()
        for item in items:
            frontier.push(candidate(*item))
        popped = [frontier.pop() for _ in range(len(items))]
        assert Counter(c.url for c in popped) == Counter(candidate(*item).url for item in items)

    @given(pushes)
    @settings(max_examples=40, deadline=None)
    def test_fifo_within_each_site(self, items):
        frontier = HostQueueFrontier()
        for item in items:
            frontier.push(candidate(*item))
        popped = [frontier.pop() for _ in range(len(items))]
        # Per site, pop order must equal push order.
        pushed_per_site: dict[str, list[str]] = {}
        for item in items:
            c = candidate(*item)
            pushed_per_site.setdefault(c.url.split("/p")[0], []).append(c.url)
        popped_per_site: dict[str, list[str]] = {}
        for c in popped:
            popped_per_site.setdefault(c.url.split("/p")[0], []).append(c.url)
        assert popped_per_site == pushed_per_site

    @given(pushes, st.integers(min_value=0, max_value=80), pushes)
    @settings(max_examples=40, deadline=None)
    def test_snapshot_roundtrip_preserves_pop_sequence(self, items, prepops, extra):
        """Round-trip at an arbitrary mid-crawl point: the restored
        frontier pops the identical sequence, even under further pushes
        (rotation state — stale entries included — must survive)."""
        frontier = HostQueueFrontier()
        for item in items:
            frontier.push(candidate(*item))
        for _ in range(min(prepops, len(items))):
            frontier.pop()

        restored = frontier_roundtrip(frontier)
        for target in (frontier, restored):
            for item in extra:
                target.push(candidate(*item))
        assert [restored.pop().url for _ in range(len(restored))] == [
            frontier.pop().url for _ in range(len(frontier))
        ]

    @given(pushes)
    @settings(max_examples=30, deadline=None)
    def test_no_site_starved_while_all_loaded(self, items):
        """Between consecutive pops from the same site, every other site
        with queued work is served at least once (round-robin fairness)."""
        frontier = HostQueueFrontier()
        for item in items:
            frontier.push(candidate(*item))
        sites_present = {candidate(*item).url.split("/p")[0] for item in items}
        popped_sites = [frontier.pop().url.split("/p")[0] for _ in range(len(items))]
        if len(sites_present) < 2:
            return
        # In a strict rotation over the initial load, the first
        # len(sites_present) pops are all distinct sites.
        first_round = popped_sites[: len(sites_present)]
        assert len(set(first_round)) == len(first_round)


class TestReprioritizableProperties:
    updates = st.lists(
        st.tuples(st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=9)),
        max_size=40,
    )

    @given(pushes, updates)
    @settings(max_examples=40, deadline=None)
    def test_conservation_under_updates(self, items, update_ops):
        frontier = ReprioritizableFrontier()
        seen: set[str] = set()
        for item in items:
            c = candidate(*item)
            if c.url not in seen:
                seen.add(c.url)
                frontier.push(c)
        for url_id, priority in update_ops:
            frontier.update_priority(f"http://h0.example/p{url_id}", priority)
        popped = {frontier.pop().url for _ in range(len(frontier))}
        assert popped == seen

    @given(pushes, updates)
    @settings(max_examples=40, deadline=None)
    def test_priority_order_respects_final_updates(self, items, update_ops):
        frontier = ReprioritizableFrontier()
        final_priority: dict[str, int] = {}
        for item in items:
            c = candidate(*item)
            if c.url not in final_priority:
                final_priority[c.url] = c.priority
                frontier.push(c)
        for url_id, priority in update_ops:
            url = f"http://h0.example/p{url_id}"
            if frontier.update_priority(url, priority):
                final_priority[url] = priority
        priorities = [final_priority[frontier.pop().url] for _ in range(len(frontier))]
        assert priorities == sorted(priorities, reverse=True)


class TestRunsPushLikeCandidates:
    """The frontiers whose bands hold candidates take a run candidate by
    candidate (``Frontier.push_run``): the same as pushing them."""

    @given(frontier_operations)
    @settings(max_examples=80, deadline=None)
    def test_host_queues(self, operations):
        assert_runs_push_like_candidates(HostQueueFrontier, operations)

    @given(frontier_operations)
    @settings(max_examples=80, deadline=None)
    def test_reprioritizable(self, operations):
        assert_runs_push_like_candidates(ReprioritizableFrontier, operations, unique=True)

    @given(frontier_operations, st.integers(min_value=2, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_spilling(self, operations, limit):
        frontiers = []

        def spilling():
            frontiers.append(SpillingFrontier(memory_limit=limit))
            return frontiers[-1]

        try:
            assert_runs_push_like_candidates(spilling, operations, snapshots=False)
        finally:
            for frontier in frontiers:
                frontier.close()
