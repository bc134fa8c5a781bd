"""Unit tests for the reprioritizable frontier."""

import pytest

from repro.core.frontier import Candidate, ReprioritizableFrontier
from repro.errors import FrontierError


def candidate(url: str, priority: int = 0) -> Candidate:
    return Candidate(url=url, priority=priority)


class TestBasics:
    def test_pops_by_priority(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://low.example/", 1))
        frontier.push(candidate("http://high.example/", 5))
        assert frontier.pop().url == "http://high.example/"

    def test_fifo_within_band(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 1))
        frontier.push(candidate("http://b.example/", 1))
        assert frontier.pop().url == "http://a.example/"

    def test_duplicate_push_rejected(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/"))
        with pytest.raises(FrontierError, match="already queued"):
            frontier.push(candidate("http://a.example/"))

    def test_pop_empty_raises(self):
        with pytest.raises(FrontierError):
            ReprioritizableFrontier().pop()

    def test_contains(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/"))
        assert "http://a.example/" in frontier
        frontier.pop()
        assert "http://a.example/" not in frontier


class TestUpdatePriority:
    def test_raise_changes_pop_order(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 1))
        frontier.push(candidate("http://b.example/", 2))
        assert frontier.update_priority("http://a.example/", 9)
        assert frontier.pop().url == "http://a.example/"

    def test_lower_changes_pop_order(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 9))
        frontier.push(candidate("http://b.example/", 2))
        frontier.update_priority("http://a.example/", 1)
        assert frontier.pop().url == "http://b.example/"

    def test_update_unqueued_returns_false(self):
        assert not ReprioritizableFrontier().update_priority("http://x.example/", 3)

    def test_update_popped_url_returns_false(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/"))
        frontier.pop()
        assert not frontier.update_priority("http://a.example/", 3)

    def test_priority_of(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 4))
        assert frontier.priority_of("http://a.example/") == 4
        frontier.update_priority("http://a.example/", 7)
        assert frontier.priority_of("http://a.example/") == 7
        assert frontier.priority_of("http://missing.example/") is None

    def test_noop_update(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 4))
        assert frontier.update_priority("http://a.example/", 4)
        assert len(frontier) == 1

    def test_len_unchanged_by_updates(self):
        frontier = ReprioritizableFrontier()
        for index in range(5):
            frontier.push(candidate(f"http://p{index}.example/", index))
        for index in range(5):
            frontier.update_priority(f"http://p{index}.example/", 10 - index)
        assert len(frontier) == 5

    def test_stale_entries_never_resurface(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 1))
        for priority in (3, 5, 2, 8):
            frontier.update_priority("http://a.example/", priority)
        popped = frontier.pop()
        assert popped.priority == 8
        assert len(frontier) == 0
        with pytest.raises(FrontierError):
            frontier.pop()

    def test_candidate_payload_survives_update(self):
        frontier = ReprioritizableFrontier()
        frontier.push(Candidate(url="http://a.example/", priority=1, distance=3, referrer="http://r.example/"))
        frontier.update_priority("http://a.example/", 6)
        popped = frontier.pop()
        assert popped.distance == 3
        assert popped.referrer == "http://r.example/"

    def test_peak_size_counts_live_entries_only(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 1))
        for priority in range(2, 10):
            frontier.update_priority("http://a.example/", priority)
        assert frontier.peak_size == 1


class TestLazyDeletionAccounting:
    """The tombstone fast path: O(1) updates with bounded dead weight."""

    def test_update_tombstones_instead_of_rebuilding(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 1))
        frontier.push(candidate("http://b.example/", 2))
        assert frontier.stale_entries == 0
        frontier.update_priority("http://a.example/", 9)
        assert frontier.stale_entries == 1
        assert len(frontier) == 2  # live view unchanged

    def test_noop_update_creates_no_tombstone(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 4))
        assert frontier.update_priority("http://a.example/", 4)
        assert frontier.stale_entries == 0

    def test_repushed_tombstone_object_queues_afresh(self):
        """An object pushed, re-ranked away and pushed again once its URL
        has left the queue pops at its new place, not at its tombstone's."""
        frontier = ReprioritizableFrontier()
        first = candidate("http://a.example/", 1)
        frontier.push(first)
        frontier.update_priority("http://a.example/", 9)
        assert frontier.pop().priority == 9
        frontier.push(candidate("http://b.example/", 1))
        frontier.push(first)  # its tombstone still sits ahead of b
        assert [frontier.pop().url for _ in range(2)] == ["http://b.example/", "http://a.example/"]
        assert frontier.stale_entries == 0

    def test_pop_reclaims_surfaced_tombstones(self):
        frontier = ReprioritizableFrontier()
        frontier.push(candidate("http://a.example/", 5))
        frontier.update_priority("http://a.example/", 9)  # old entry is stale
        assert frontier.stale_entries == 1
        assert frontier.pop().priority == 9
        # Draining the frontier surfaces (and discards) the tombstone.
        with pytest.raises(FrontierError):
            frontier.pop()
        assert frontier.stale_entries == 0

    def test_compaction_bounds_heap_under_update_storm(self):
        frontier = ReprioritizableFrontier()
        urls = [f"http://p{index}.example/" for index in range(10)]
        for index, url in enumerate(urls):
            frontier.push(candidate(url, index))
        # Hammer one URL with far more updates than there are live
        # entries; compaction must keep the bands near the live size
        # instead of letting them grow by one entry per update.
        for round_number in range(50):
            for url in urls:
                frontier.update_priority(url, round_number * 11 % 97)
        assert len(frontier) == 10
        assert frontier.stale_entries <= ReprioritizableFrontier._COMPACT_MIN + len(frontier)
        held = sum(map(len, frontier._bands.values()))
        assert held == len(frontier) + frontier.stale_entries

    def test_pop_order_identical_with_and_without_compaction(self):
        """Compaction is invisible: a frontier driven past the compaction
        threshold pops in exactly the order of a fresh frontier given the
        final priorities directly."""
        urls = [f"http://p{index}.example/" for index in range(12)]
        final_priority = {url: (index * 7) % 5 for index, url in enumerate(urls)}

        churned = ReprioritizableFrontier()
        for index, url in enumerate(urls):
            churned.push(candidate(url, index % 3))
        for round_number in range(40):  # well past _COMPACT_MIN tombstones
            for url in urls:
                churned.update_priority(url, round_number % 7)
        for url in urls:
            churned.update_priority(url, final_priority[url])

        direct = ReprioritizableFrontier()
        for url in urls:
            direct.push(candidate(url, final_priority[url]))

        churned_order = [churned.pop().url for _ in range(len(urls))]
        direct_order = [direct.pop().url for _ in range(len(urls))]
        # Same bands and, within each band, both respect insertion order
        # of the *last* update — which we issued in the same sequence.
        assert churned_order == direct_order
