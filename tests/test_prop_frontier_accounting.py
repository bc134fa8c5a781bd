"""Property: every frontier's counters match a reference model, step by step.

Each ``push`` counts itself and raises the peak inline, and truth is
``__len__``; so after any sequence of push / pop / ``update_priority`` /
compaction, on every frontier discipline, ``bool(f) == (len(f) > 0)``
and ``pushes`` / ``pops`` / ``peak_size`` equal what a plain counter
model says they must be.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.frontier import (
    Candidate,
    FIFOFrontier,
    PriorityFrontier,
    ReprioritizableFrontier,
)
from repro.core.politeness import HostQueueFrontier
from repro.core.spilling import SpillingFrontier
from repro.errors import FrontierError


class _EagerCompaction(ReprioritizableFrontier):
    """Compacts after a handful of tombstones, so short sequences reach it."""

    _COMPACT_MIN = 2


FRONTIERS = {
    "fifo": FIFOFrontier,
    "priority": PriorityFrontier,
    "reprioritizable": _EagerCompaction,
    "host-queue": HostQueueFrontier,
    "spilling": lambda: SpillingFrontier(memory_limit=3),
}

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 4), st.integers(0, 3)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("update"), st.integers(0, 30), st.integers(0, 4)),
        st.tuples(st.just("compact")),
    ),
    max_size=60,
)


@pytest.mark.parametrize("kind", sorted(FRONTIERS))
@given(ops=operations)
@settings(max_examples=60, deadline=None)
def test_counters_follow_the_reference_model(kind, ops):
    frontier = FRONTIERS[kind]()
    queued: list[str] = []  # the model: what is in the queue, in any order
    pushes = pops = peak = 0
    try:
        for number, op in enumerate(ops):
            if op[0] == "push":
                _, priority, host = op
                url = f"http://h{host}.example/p{number}"
                frontier.push(Candidate(url, priority))
                queued.append(url)
                pushes += 1
                peak = max(peak, len(queued))
            elif op[0] == "pop":
                if queued:
                    queued.remove(frontier.pop().url)
                    pops += 1
                else:
                    with pytest.raises(FrontierError):
                        frontier.pop()
            elif op[0] == "update" and isinstance(frontier, ReprioritizableFrontier):
                _, index, priority = op
                url = queued[index % len(queued)] if queued else "http://gone.example/"
                assert frontier.update_priority(url, priority) is bool(queued)
            elif op[0] == "compact" and isinstance(frontier, ReprioritizableFrontier):
                frontier._compact()
            assert bool(frontier) == (len(frontier) > 0)
            assert len(frontier) == len(queued)
            assert (frontier.pushes, frontier.pops, frontier.peak_size) == (pushes, pops, peak)
    finally:
        frontier.close()
