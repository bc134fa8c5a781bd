"""Property-based tests for the extended frontiers (spilling, host-queue,
reprioritizable) — conservation and discipline invariants under random
operation sequences.
"""

from collections import Counter
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.core.frontier import Candidate, PriorityFrontier, ReprioritizableFrontier
from repro.core.politeness import HostQueueFrontier
from repro.core.spilling import SpillingFrontier

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


@contextmanager
def spilling_frontiers(limit: int):
    """A factory of spilling frontiers at ``limit``, each closed on exit."""
    frontiers: list[SpillingFrontier] = []

    def spilling() -> SpillingFrontier:
        frontiers.append(SpillingFrontier(memory_limit=limit))
        return frontiers[-1]

    try:
        yield spilling
    finally:
        for frontier in frontiers:
            frontier.close()


def overfill(limit: int) -> list[tuple]:
    """``2 * limit`` pushes over five priorities: a spilling frontier at
    ``limit`` spills stretches of every size its batch allows, and the
    final drain of ``assert_runs_push_like_candidates`` reads each of
    them back."""
    return [("push", (i % 4, i), i % 5 - 2, i % 3, i % 2 == 0) for i in range(2 * limit)]


class TestSpillEqualsThePriorityFrontier:
    @given(frontier_operations, st.integers(min_value=2, max_value=40))
    @settings(max_examples=300, deadline=None)
    def test_any_interleaving_equals_the_priority_frontier(self, operations, limit):
        """Pushes, runs, pops, snapshots and restores in any order, on a
        queue already twice the limit: the spilling frontier pops what
        :class:`PriorityFrontier` pops (the url-id hint aside), keeps its
        counters and ``len``, and snapshots the same columns, however
        much of it is on disk."""
        with spilling_frontiers(limit) as spilling:
            assert_runs_push_like_candidates(
                spilling, overfill(limit) + operations, reference=PriorityFrontier, hints=False
            )

    @given(frontier_operations, st.integers(min_value=2, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_the_resident_set_stays_within_the_limit(self, operations, limit):
        """Every operation, a restore and a pop that reads a stretch back
        included, leaves at most ``limit`` candidates in memory."""
        resident: list[int] = []

        class Bounded(SpillingFrontier):
            def push(self, candidate):
                super().push(candidate)
                resident.append(self.resident_size)

            def pop(self):
                candidate = super().pop()
                resident.append(self.resident_size)
                return candidate

            def restore(self, state, table):
                super().restore(state, table)
                resident.append(self.resident_size)

        with spilling_frontiers(limit) as spilling:
            assert_runs_push_like_candidates(
                lambda: Bounded(memory_limit=limit), overfill(limit) + operations,
                reference=spilling,
            )
        assert all(size <= limit for size in resident)


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
        with spilling_frontiers(limit) as spilling:
            assert_runs_push_like_candidates(spilling, operations)
