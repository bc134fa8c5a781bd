"""Unit tests for the per-server queue frontier and polite ordering."""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.frontier import Candidate
from repro.core.politeness import (
    HostQueueFrontier,
    HostQueues,
    max_same_site_run,
)
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.errors import CheckpointError, FrontierError

from conftest import SEED, frontier_roundtrip


def candidate(url: str) -> Candidate:
    return Candidate(url=url)


class TestHostQueueFrontier:
    def test_round_robin_across_sites(self):
        frontier = HostQueueFrontier()
        for index in range(2):
            frontier.push(candidate(f"http://a.example/p{index}"))
            frontier.push(candidate(f"http://b.example/p{index}"))
        order = [frontier.pop().url for _ in range(4)]
        assert order == [
            "http://a.example/p0",
            "http://b.example/p0",
            "http://a.example/p1",
            "http://b.example/p1",
        ]

    def test_fifo_within_site(self):
        frontier = HostQueueFrontier()
        for index in range(3):
            frontier.push(candidate(f"http://a.example/p{index}"))
        assert [frontier.pop().url for _ in range(3)] == [
            f"http://a.example/p{index}" for index in range(3)
        ]

    def test_drained_site_reenters_at_back(self):
        frontier = HostQueueFrontier()
        frontier.push(candidate("http://a.example/p0"))
        frontier.push(candidate("http://b.example/p0"))
        assert frontier.pop().url == "http://a.example/p0"  # a drains
        frontier.push(candidate("http://a.example/p1"))  # a re-enters after b
        assert frontier.pop().url == "http://b.example/p0"
        assert frontier.pop().url == "http://a.example/p1"

    def test_site_distinguished_by_port(self):
        frontier = HostQueueFrontier()
        frontier.push(candidate("http://a.example/p"))
        frontier.push(candidate("http://a.example:8080/p"))
        assert frontier.site_count == 2

    def test_len_and_pop_empty(self):
        frontier = HostQueueFrontier()
        assert len(frontier) == 0
        with pytest.raises(FrontierError):
            frontier.pop()

    def test_peak_size(self):
        frontier = HostQueueFrontier()
        for index in range(4):
            frontier.push(candidate(f"http://h{index}.example/"))
        frontier.pop()
        assert frontier.peak_size == 4

    def test_unparseable_url_gets_own_site(self):
        frontier = HostQueueFrontier()
        frontier.push(Candidate(url="not a real url"))
        assert frontier.pop().url == "not a real url"


class TestHostQueueSnapshot:
    """snapshot/restore must reproduce the exact pop sequence, not just
    queue membership — the rotation (stale entries included) is state."""

    def _drain(self, frontier):
        return [frontier.pop().url for _ in range(len(frontier))]

    def test_roundtrip_preserves_pop_sequence(self):
        frontier = HostQueueFrontier()
        for url in [
            "http://a.example/p0",
            "http://b.example/p0",
            "http://a.example/p1",
            "http://c.example/p0",
            "http://b.example/p1",
        ]:
            frontier.push(candidate(url))
        frontier.pop()  # mid-rotation: a served, b at the head

        restored = frontier_roundtrip(frontier)
        assert self._drain(restored) == self._drain(frontier)

    def test_roundtrip_with_drained_site_reentry(self):
        # A drained site that re-enters the rotation later must keep its
        # back-of-the-line position across the round-trip.
        frontier = HostQueueFrontier()
        frontier.push(candidate("http://a.example/p0"))
        frontier.push(candidate("http://b.example/p0"))
        frontier.pop()  # a drains and leaves the rotation
        frontier.push(candidate("http://a.example/p1"))  # re-enters after b

        restored = frontier_roundtrip(frontier)
        assert self._drain(restored) == [
            "http://b.example/p0",
            "http://a.example/p1",
        ]

    def test_roundtrip_then_push_behaves_identically(self):
        frontier = HostQueueFrontier()
        for index in range(3):
            frontier.push(candidate(f"http://h{index}.example/p0"))
        frontier.pop()

        restored = frontier_roundtrip(frontier)
        for target in (frontier, restored):
            target.push(candidate("http://h0.example/p1"))
            target.push(candidate("http://new.example/p0"))
        assert self._drain(restored) == self._drain(frontier)

    def test_counters_survive_roundtrip(self):
        frontier = HostQueueFrontier()
        for index in range(4):
            frontier.push(candidate(f"http://h{index}.example/"))
        frontier.pop()
        frontier.pop()

        restored = frontier_roundtrip(frontier)
        assert len(restored) == 2
        assert restored.pops == 2
        assert restored.peak_size == 4

    def test_candidate_fields_survive(self):
        frontier = HostQueueFrontier()
        frontier.push(
            Candidate(url="http://a.example/p", priority=3, distance=2, referrer=SEED)
        )
        restored = frontier_roundtrip(frontier)
        popped = restored.pop()
        assert (popped.url, popped.priority, popped.distance, popped.referrer) == (
            "http://a.example/p", 3, 2, SEED,
        )

    def test_rejects_foreign_kind(self):
        from repro.core.frontier import FIFOFrontier

        fifo = FIFOFrontier()
        fifo.push(candidate(SEED))
        with pytest.raises(CheckpointError, match="kind"):
            frontier_roundtrip(fifo, into=HostQueueFrontier)


class TestPoliteKillResume:
    """A polite crawl killed mid-run and resumed from its checkpoint
    fetches exactly what the uninterrupted crawl would have."""

    def test_kill_and_resume_matches_uninterrupted(self, thai_dataset, tmp_path):
        def fetched(**kwargs):
            urls: list[str] = []
            CrawlSession(
                CrawlRequest(dataset=thai_dataset, strategy=BreadthFirstStrategy()),
                SessionConfig(
                    frontier=HostQueues(),
                    sample_interval=10_000,
                    on_fetch=lambda event: urls.append(event.url),
                    **kwargs,
                ),
            ).run()
            return urls

        full = fetched(max_pages=300)
        path = tmp_path / "polite.ckpt"
        # "Kill" at 160 pages with a checkpoint every 50: the last
        # checkpoint on disk holds the first 150 fetches.
        killed = fetched(max_pages=160, checkpoint_every=50, checkpoint_path=path)
        resumed = fetched(resume_from=path, max_pages=300)
        assert killed[:150] + resumed == full


class TestMaxSameSiteRun:
    def test_alternating_is_one(self):
        urls = ["http://a.example/1", "http://b.example/1", "http://a.example/2"]
        assert max_same_site_run(urls) == 1

    def test_burst_counted(self):
        urls = ["http://a.example/1", "http://a.example/2", "http://a.example/3", "http://b.example/1"]
        assert max_same_site_run(urls) == 3

    def test_empty(self):
        assert max_same_site_run([]) == 0


def crawl_order(web, seeds, strategy, frontier, **config) -> list[str]:
    urls: list[str] = []
    CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=tuple(seeds),
            relevant_urls=frozenset(),
        ),
        SessionConfig(
            frontier=frontier, on_fetch=lambda event: urls.append(event.url), **config
        ),
    ).run()
    return urls


class TestPoliteOrderingStrategy:
    """Any strategy's link selection under ``frontier=HostQueues()``."""

    def test_name_and_delegation(self, tiny_web):
        session = CrawlSession(
            CrawlRequest(
                strategy=SimpleStrategy(mode="hard"),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
            ),
            SessionConfig(frontier=HostQueues()),
        ).open()
        assert isinstance(session.frontier, HostQueueFrontier)
        assert session.run().strategy == "polite(hard-focused)"

    def test_same_reachability_as_inner(self, tiny_web):
        def crawl(frontier):
            return set(
                crawl_order(
                    tiny_web, [SEED], BreadthFirstStrategy(), frontier, sample_interval=1
                )
            )

        # Polite ordering changes the order, never the kept-URL set for
        # order-insensitive strategies like breadth-first.
        assert crawl(HostQueues()) == crawl(None)

    def test_reduces_burstiness_on_generated_data(self, thai_dataset):
        def burstiness(frontier):
            return max_same_site_run(
                crawl_order(
                    thai_dataset.web(),
                    thai_dataset.seed_urls,
                    BreadthFirstStrategy(),
                    frontier,
                    sample_interval=10_000,
                    max_pages=2000,
                )
            )

        plain = burstiness(None)
        polite = burstiness(HostQueues())
        assert polite < plain
        assert polite <= 3
