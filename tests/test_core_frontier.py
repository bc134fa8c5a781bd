"""Unit tests for repro.core.frontier."""

import pytest

from repro.core.frontier import Candidate, FIFOFrontier, PriorityFrontier
from repro.errors import FrontierError


def candidate(url: str, priority: int = 0, distance: int = 0) -> Candidate:
    return Candidate(url=url, priority=priority, distance=distance)


class TestCandidate:
    def test_defaults(self):
        c = Candidate(url="http://x.example/")
        assert c.priority == 0
        assert c.distance == 0
        assert c.referrer is None

    def test_frozen(self):
        c = Candidate(url="http://x.example/")
        with pytest.raises(AttributeError):
            c.priority = 5  # type: ignore[misc]


class TestFIFOFrontier:
    def test_fifo_order(self):
        frontier = FIFOFrontier()
        for name in ("a", "b", "c"):
            frontier.push(candidate(f"http://{name}.example/"))
        popped = [frontier.pop().url for _ in range(3)]
        assert popped == ["http://a.example/", "http://b.example/", "http://c.example/"]

    def test_priority_ignored(self):
        frontier = FIFOFrontier()
        frontier.push(candidate("http://low.example/", priority=0))
        frontier.push(candidate("http://high.example/", priority=9))
        assert frontier.pop().url == "http://low.example/"

    def test_len_and_bool(self):
        frontier = FIFOFrontier()
        assert len(frontier) == 0
        assert not frontier
        frontier.push(candidate("http://a.example/"))
        assert len(frontier) == 1
        assert frontier

    def test_pop_empty_raises(self):
        with pytest.raises(FrontierError):
            FIFOFrontier().pop()

    def test_peak_size_tracks_high_water_mark(self):
        frontier = FIFOFrontier()
        for index in range(5):
            frontier.push(candidate(f"http://p{index}.example/"))
        for _ in range(5):
            frontier.pop()
        frontier.push(candidate("http://late.example/"))
        assert frontier.peak_size == 5


class TestPriorityFrontier:
    def test_higher_priority_pops_first(self):
        frontier = PriorityFrontier()
        frontier.push(candidate("http://low.example/", priority=0))
        frontier.push(candidate("http://high.example/", priority=1))
        assert frontier.pop().url == "http://high.example/"
        assert frontier.pop().url == "http://low.example/"

    def test_fifo_within_priority_band(self):
        frontier = PriorityFrontier()
        for name in ("first", "second", "third"):
            frontier.push(candidate(f"http://{name}.example/", priority=1))
        assert [frontier.pop().url for _ in range(3)] == [
            "http://first.example/",
            "http://second.example/",
            "http://third.example/",
        ]

    def test_interleaved_bands(self):
        frontier = PriorityFrontier()
        frontier.push(candidate("http://a0.example/", priority=0))
        frontier.push(candidate("http://a2.example/", priority=2))
        frontier.push(candidate("http://a1.example/", priority=1))
        frontier.push(candidate("http://b2.example/", priority=2))
        order = [frontier.pop().url for _ in range(4)]
        assert order == [
            "http://a2.example/",
            "http://b2.example/",
            "http://a1.example/",
            "http://a0.example/",
        ]

    def test_negative_priorities_supported(self):
        frontier = PriorityFrontier()
        frontier.push(candidate("http://neg.example/", priority=-3))
        frontier.push(candidate("http://zero.example/", priority=0))
        assert frontier.pop().url == "http://zero.example/"

    def test_pop_empty_raises(self):
        with pytest.raises(FrontierError):
            PriorityFrontier().pop()

    def test_push_after_pops_keeps_fifo_tiebreak(self):
        frontier = PriorityFrontier()
        frontier.push(candidate("http://a.example/", priority=1))
        frontier.pop()
        frontier.push(candidate("http://b.example/", priority=1))
        frontier.push(candidate("http://c.example/", priority=1))
        assert frontier.pop().url == "http://b.example/"

    def test_peak_size(self):
        frontier = PriorityFrontier()
        frontier.push(candidate("http://a.example/"))
        frontier.push(candidate("http://b.example/"))
        frontier.pop()
        assert frontier.peak_size == 2

    def test_candidate_payload_preserved(self):
        frontier = PriorityFrontier()
        frontier.push(Candidate(url="http://a.example/", priority=2, distance=7, referrer="http://r.example/"))
        popped = frontier.pop()
        assert popped.distance == 7
        assert popped.referrer == "http://r.example/"


class TestTiebreakCounter:
    """FIFO order within a priority, and the push counter a snapshot writes.

    The queue is one ``deque`` band per priority under a heap of plain
    ``int`` band keys, so pop order is a pure function of (priority,
    push sequence) on every Python version and no candidate is ever
    compared.  The per-frontier push counter only goes into snapshots,
    where it must stay above every row's tiebreak.  The golden-trace
    suite pins the crawl-level consequence; these pin the mechanism.
    """

    def test_counter_is_monotonic_across_pushes_and_pops(self):
        frontier = PriorityFrontier()
        for index in range(3):
            frontier.push(Candidate(url=f"http://a{index}.example/", priority=1))
        frontier.pop()
        frontier.push(Candidate(url="http://late.example/", priority=1))
        state = frontier.snapshot({})
        assert state["tiebreak"].tolist() == [0, 1, 2]  # unique: the rows' pop ranks
        assert frontier._counter == state["counter"] == 4  # never reset by pops

    def test_candidates_are_never_compared(self):
        """Equal (priority, referrer-free) candidates would raise if the
        heap ever compared them — Candidate defines no ordering."""
        frontier = PriorityFrontier()
        same = dict(priority=7, distance=0, referrer=None)
        for index in range(100):
            frontier.push(Candidate(url=f"http://h{index}.example/", **same))
        popped = [frontier.pop().url for _ in range(100)]
        assert popped == [f"http://h{index}.example/" for index in range(100)]

    def test_bands_hold_the_candidates_under_plain_int_keys(self):
        frontier = PriorityFrontier()
        low = Candidate(url="http://low.example/", priority=-1)
        high = Candidate(url="http://a.example/", priority=2)
        frontier.push(low)
        frontier.push(high)
        assert frontier._keys == [-2, 1]
        assert all(type(key) is int for key in frontier._keys)
        assert frontier._bands[-2][0] is high and frontier._bands[1][0] is low
        frontier.pop()
        assert frontier._keys == [1] and -2 not in frontier._bands  # an empty band goes

    def test_mixed_band_burst_pops_priority_then_insertion(self):
        frontier = PriorityFrontier()
        pushes = [("a", 1), ("b", 2), ("c", 1), ("d", 2), ("e", 1), ("f", 2)]
        for name, priority in pushes:
            frontier.push(Candidate(url=f"http://{name}.example/", priority=priority))
        order = [frontier.pop().url for _ in range(len(pushes))]
        assert order == [
            "http://b.example/", "http://d.example/", "http://f.example/",
            "http://a.example/", "http://c.example/", "http://e.example/",
        ]
