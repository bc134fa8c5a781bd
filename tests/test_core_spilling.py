"""Unit tests for the disk-spilling frontier."""

import os

import pytest

from repro.core.classifier import Classifier
from repro.core.frontier import Candidate
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.spilling import SpillConfig, SpillingFrontier
from repro.core.strategies import SimpleStrategy
from repro.webspace.virtualweb import VirtualWebSpace
from repro.errors import FrontierError

from conftest import SEED


def candidate(index: int, priority: int = 0) -> Candidate:
    return Candidate(url=f"http://p{index}.example/", priority=priority)


class TestSpillMechanics:
    def test_no_spill_under_limit(self):
        with SpillingFrontier(memory_limit=10) as frontier:
            for index in range(10):
                frontier.push(candidate(index))
            assert frontier.spilled == 0
            assert frontier.resident_size == 10

    def test_spills_beyond_limit(self):
        with SpillingFrontier(memory_limit=10) as frontier:
            for index in range(15):
                frontier.push(candidate(index))
            assert frontier.spilled > 0
            assert frontier.resident_size <= 10
            assert len(frontier) == 15

    def test_everything_comes_back(self):
        with SpillingFrontier(memory_limit=8) as frontier:
            pushed = {f"http://p{index}.example/" for index in range(50)}
            for index in range(50):
                frontier.push(candidate(index))
            popped = {frontier.pop().url for _ in range(50)}
            assert popped == pushed
            assert len(frontier) == 0

    def test_high_priority_stays_resident(self):
        with SpillingFrontier(memory_limit=10) as frontier:
            for index in range(30):
                frontier.push(candidate(index, priority=0))
            for index in range(30, 35):
                frontier.push(candidate(index, priority=5))
            # The five hot candidates must pop first, never spilled.
            first_five = [frontier.pop() for _ in range(5)]
            assert all(item.priority == 5 for item in first_five)

    def test_resident_bounded_throughout(self):
        with SpillingFrontier(memory_limit=16) as frontier:
            peak = 0
            for index in range(200):
                frontier.push(candidate(index))
                peak = max(peak, frontier.resident_size)
            # One batch of slack beyond the limit is allowed transiently.
            assert peak <= 16 + 2

    def test_stats(self):
        with SpillingFrontier(memory_limit=8) as frontier:
            for index in range(20):
                frontier.push(candidate(index))
            for _ in range(20):
                frontier.pop()
            stats = frontier.stats()
            assert stats.spilled == stats.reloaded > 0
            assert stats.peak_total == 20

    def test_pop_empty_raises(self):
        with SpillingFrontier(memory_limit=4) as frontier:
            with pytest.raises(FrontierError):
                frontier.pop()

    def test_candidate_payload_survives_spill(self):
        with SpillingFrontier(memory_limit=2) as frontier:
            frontier.push(Candidate(url="http://keep1.example/", priority=9))
            frontier.push(Candidate(url="http://keep2.example/", priority=9))
            frontier.push(
                Candidate(url="http://cold.example/", priority=0, distance=4, referrer="http://r.example/")
            )
            frontier.pop(), frontier.pop()
            cold = frontier.pop()
            assert cold.distance == 4
            assert cold.referrer == "http://r.example/"

    def test_close_removes_spill_file(self, tmp_path):
        frontier = SpillingFrontier(memory_limit=2, spill_dir=str(tmp_path))
        for index in range(10):
            frontier.push(candidate(index))
        spill_files = list(tmp_path.iterdir())
        assert len(spill_files) == 1
        frontier.close()
        assert not list(tmp_path.iterdir())

    def test_rejects_tiny_limit(self):
        with pytest.raises(FrontierError):
            SpillingFrontier(memory_limit=1)


class TestSpillingStrategy:
    """Any strategy's link selection over a spilling queue."""

    def test_crawl_equivalent_coverage(self, thai_dataset):
        request = CrawlRequest(dataset=thai_dataset, strategy=SimpleStrategy(mode="soft"))
        plain = CrawlSession(request).run()
        session = CrawlSession(
            request, SessionConfig(frontier=SpillConfig(memory_limit=200))
        )
        session.step()
        spilled = session.report()
        stats = session.frontier.stats()
        session.close()

        assert spilled.final_coverage == pytest.approx(plain.final_coverage)
        assert spilled.pages_crawled == plain.pages_crawled
        assert stats.spilled > 0
        # The whole point: resident set bounded, far under the plain
        # frontier's peak.
        assert stats.peak_resident <= 200 + 20
        assert stats.peak_resident < plain.summary.max_queue_size / 5

    def test_name(self, tiny_web):
        result = CrawlSession(
            CrawlRequest(
                strategy=SimpleStrategy(mode="soft"),
                web=tiny_web,
                classifier=Classifier("thai"),
                seeds=(SEED,),
            ),
            SessionConfig(frontier=SpillConfig(memory_limit=64)),
        ).run()
        assert result.strategy == result.series.name == "spilling(soft-focused, mem=64)"


class TestIdSpill:
    """Spilling by page id against a columnar store (`SpillConfig` path)."""

    @pytest.fixture()
    def page_source(self, tmp_path):
        from repro.charset.languages import Language
        from repro.webspace.page import PageRecord
        from repro.webspace.store import PageStore, StoreBuilder

        builder = StoreBuilder()
        for index in range(8):
            builder.add(
                PageRecord(
                    url=f"http://p{index}.example/",
                    charset="TIS-620",
                    true_language=Language.THAI,
                    outlinks=(f"http://p{(index + 1) % 8}.example/",),
                    size=100,
                )
            )
        builder.finish(tmp_path / "spill.lswc")
        with PageStore.open(tmp_path / "spill.lswc") as store:
            yield store

    def test_spill_entry_uses_ids(self, page_source):
        from repro.core.spilling import candidate_from_spill, spill_entry

        original = Candidate(
            url="http://p3.example/",
            priority=2,
            distance=5,
            referrer="http://p1.example/",
        )
        entry = spill_entry(original, page_source)
        assert entry == {"i": 3, "p": 2, "d": 5, "ri": 1}
        assert candidate_from_spill(entry, page_source) == original

    def test_spill_entry_falls_back_to_urls(self, page_source):
        from repro.core.spilling import candidate_from_spill, spill_entry

        stranger = Candidate(url="http://elsewhere.example/", priority=1)
        entry = spill_entry(stranger, page_source)
        assert "i" not in entry and entry["u"] == stranger.url
        assert candidate_from_spill(entry, page_source) == stranger

        # Known url, unknown referrer: id for the url, string for the ref.
        mixed = Candidate(url="http://p0.example/", referrer="http://elsewhere.example/")
        entry = spill_entry(mixed, page_source)
        assert entry["i"] == 0 and entry["r"] == "http://elsewhere.example/"
        assert candidate_from_spill(entry, page_source) == mixed

    def test_carried_id_saves_the_lookup_and_survives_the_round_trip(
        self, page_source, monkeypatch
    ):
        from repro.core.candidate import stamp_uid
        from repro.core.spilling import candidate_from_spill, spill_entry

        lookups = []
        real = page_source.id_of
        monkeypatch.setattr(page_source, "id_of", lambda url: lookups.append(url) or real(url))
        hinted = stamp_uid(Candidate(url="http://p3.example/", priority=2), 3)
        entry = spill_entry(hinted, page_source)
        assert entry == {"i": 3, "p": 2} and lookups == []
        restored = candidate_from_spill(entry, page_source)
        assert restored == hinted and restored.uid == 3

    @pytest.mark.parametrize("wrong", [5, 8, -1, 10**9])
    def test_wrong_carried_id_is_looked_up_not_trusted(self, page_source, wrong):
        from repro.core.candidate import stamp_uid
        from repro.core.spilling import candidate_from_spill, spill_entry

        # Another page's id, one past the URL table, negative, huge.
        hinted = stamp_uid(Candidate(url="http://p3.example/"), wrong)
        entry = spill_entry(hinted, page_source)
        assert entry == {"i": 3}
        assert candidate_from_spill(entry, page_source).url == "http://p3.example/"
        stranger = stamp_uid(Candidate(url="http://elsewhere.example/"), wrong)
        assert spill_entry(stranger, page_source) == {"u": "http://elsewhere.example/"}

    def test_id_entry_needs_page_source(self):
        from repro.core.spilling import candidate_from_spill

        with pytest.raises(FrontierError):
            candidate_from_spill({"i": 3})

    def test_frontier_round_trips_ids(self, page_source):
        with SpillingFrontier(memory_limit=2, page_source=page_source) as frontier:
            pushed = {f"http://p{index}.example/" for index in range(8)}
            for index in range(8):
                frontier.push(candidate(index))
            assert frontier.spilled > 0
            assert {frontier.pop().url for _ in range(8)} == pushed


class TestSessionSpillConfig:
    def test_spill_config_equivalent_crawl(self, thai_dataset):
        def run(config):
            request = CrawlRequest(
                strategy=SimpleStrategy(mode="soft"),
                web=VirtualWebSpace(thai_dataset.crawl_log),
                classifier=Classifier(thai_dataset.profile.target_language),
                seeds=thai_dataset.seed_urls,
                relevant_urls=thai_dataset.relevant_urls(),
            )
            return CrawlSession(request, config).run()

        plain = run(SessionConfig(sample_interval=500))
        spilled = run(
            SessionConfig(sample_interval=500, frontier=SpillConfig(memory_limit=100))
        )
        assert spilled.pages_crawled == plain.pages_crawled
        assert spilled.final_coverage == pytest.approx(plain.final_coverage)
