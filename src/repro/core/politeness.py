"""Per-server queue crawl ordering (paper §4's second omitted detail).

"The first version of the crawling simulator ... has been implemented
with the omission of details such as elapsed time and per-server queue
typically found in a real-world web crawler."  :mod:`repro.core.timing`
restores elapsed time; this module restores the per-server queue.

A real crawler keeps one FIFO per site and serves sites round-robin so
no server sees request bursts.  :class:`HostQueueFrontier` implements
exactly that discipline, and ``SessionConfig(frontier=HostQueues())``
runs any strategy's *link selection* under it: the strategy still
decides which URLs enter the queue (hard-focused discarding,
limited-distance pruning, ...), while the per-server rotation replaces
its priority ordering.

The interesting question — answered by ``bench_ext_politeness.py`` — is
what that reordering costs: burstiness drops by construction; harvest
and coverage barely move.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from itertools import chain

from repro.core.candidate import candidates_from_columns, candidates_to_columns, int_column
from repro.core.frontier import Candidate, Frontier
from repro.errors import CheckpointError, FrontierError, UrlError
from repro.schema import ConfigValue
from repro.urlkit.normalize import url_site_key


def _site_of(url: str) -> str:
    try:
        return url_site_key(url)
    except UrlError:
        return url  # unparseable URLs get their own "site"


class HostQueueFrontier(Frontier):
    """One FIFO per site, served round-robin.

    Rotation order is site discovery order; a site leaves the rotation
    when its queue drains and re-enters at the back if new URLs for it
    arrive later — the steady-state behaviour of a polite fetcher pool.
    """

    def __init__(self) -> None:
        super().__init__()
        self._queues: OrderedDict[str, deque[Candidate]] = OrderedDict()
        self._rotation: deque[str] = deque()
        self._size = 0

    def push(self, candidate: Candidate) -> None:
        site = _site_of(candidate.url)
        queue = self._queues.get(site)
        if queue is None:
            queue = deque()
            self._queues[site] = queue
            self._rotation.append(site)
        elif not queue:
            # Site had drained and left the rotation; re-admit it.
            self._rotation.append(site)
        queue.append(candidate)
        self._size += 1
        self.pushes += 1
        if self._size > self._peak_size:
            self._peak_size = self._size

    def pop(self) -> Candidate:
        while self._rotation:
            site = self._rotation.popleft()
            queue = self._queues[site]
            if not queue:
                continue  # stale rotation entry
            candidate = queue.popleft()
            self._size -= 1
            self.pops += 1
            if queue:
                self._rotation.append(site)
            return candidate
        raise FrontierError("pop from empty host-queue frontier")

    def __len__(self) -> int:
        return self._size

    @property
    def site_count(self) -> int:
        """Number of sites currently holding queued URLs."""
        return sum(1 for queue in self._queues.values() if queue)

    def snapshot(self, index: dict[str, int]) -> dict:
        # Queues are serialised in discovery (insertion) order — one
        # run of candidate columns, cut by ``sizes`` — and the rotation
        # verbatim, stale entries for drained sites included, so a
        # restore reproduces the exact round-robin pop sequence, not
        # merely the same membership.
        queues = self._queues.values()
        return {
            "kind": "host-queue",
            **self._counters_dict(),
            "sites": list(self._queues),
            "sizes": [len(queue) for queue in queues],
            **candidates_to_columns(list(chain.from_iterable(queues)), index),
            "rotation": list(self._rotation),
        }

    def restore(self, state: dict, table: Sequence[str]) -> None:
        self._check_kind(state, "host-queue")
        candidates = candidates_from_columns(state, table)
        sites = state["sites"]
        sizes = int_column(state, "sizes", len(sites)).tolist()
        if (sizes and min(sizes) < 0) or sum(sizes) != len(candidates):
            raise CheckpointError(
                f"host-queue sizes do not add up to its {len(candidates)} candidates"
            )
        self._queues = OrderedDict()
        start = 0
        for site, size in zip(sites, sizes):
            self._queues[site] = deque(candidates[start : start + size])
            start += size
        if len(self._queues) != len(sites):
            raise CheckpointError("host-queue lists a site twice")
        self._rotation = deque(state["rotation"])
        if not self._queues.keys() >= set(self._rotation):
            raise CheckpointError("host-queue rotation names a site that has no queue")
        self._size = len(candidates)
        self._restore_counters(state)


@dataclass(frozen=True, slots=True)
class HostQueues(ConfigValue):
    """``SessionConfig(frontier=HostQueues())``: crawl on a
    :class:`HostQueueFrontier`, whatever queue the strategy would make."""


def max_same_site_run(urls: Iterable[str]) -> int:
    """Longest run of consecutive fetches against one site.

    Note that even a perfectly polite ordering produces long runs at the
    *tail* of a crawl, once only one site has queued work left — so the
    benchmark's primary burstiness measure is :func:`mean_same_site_run`,
    which is not dominated by the unavoidable tail.
    """
    longest = 0
    for length in _run_lengths(urls):
        if length > longest:
            longest = length
    return longest


def mean_same_site_run(urls: Iterable[str]) -> float:
    """Average length of consecutive same-site fetch runs.

    A polite rotation keeps this near 1.0 for as long as several sites
    hold queued work; burstier orderings hammer a site repeatedly and
    score higher.
    """
    total = 0
    runs = 0
    for length in _run_lengths(urls):
        total += length
        runs += 1
    return total / runs if runs else 0.0


def _run_lengths(urls: Iterable[str]) -> Iterable[int]:
    current_site: str | None = None
    run = 0
    for url in urls:
        site = _site_of(url)
        if site == current_site:
            run += 1
        else:
            if run:
                yield run
            current_site = site
            run = 1
    if run:
        yield run
