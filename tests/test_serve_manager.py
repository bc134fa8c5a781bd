"""SessionManager: multiplexing, evict-to-disk residency, and the
mid-backoff double-count guard.

The headline guarantee under test: eviction is *invisible* — a session
that bounced through any number of evict/resume cycles (including ones
forced by the resident cap, or triggered after a simulated process kill
mid-retry-backoff) reports byte-identically to a session that never left
memory, with no retry attempt counted twice.
"""

import json

import pytest

from repro import CrawlRequest, CrawlSession, SessionConfig, report_payload, run_crawl
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.engine import EngineHook
from repro.core.spilling import SpillConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.core.timing import TimingModel
from repro.errors import CheckpointError, ConfigError, SessionError
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    first_divergence,
    golden_dataset,
    golden_strategies,
    read_golden_trace,
)
from repro.faults import FaultModel, FaultProfile
from repro.serve import SessionManager

from conftest import SEED, reseal_checkpoint

FAULTY_PROFILE = FaultProfile(
    transient_error_rate=0.5, timeout_rate=0.2, truncation_rate=0.3
)


def _request(web, strategy=None) -> CrawlRequest:
    return CrawlRequest(
        strategy=strategy if strategy is not None else BreadthFirstStrategy(),
        web=web,
        classifier=Classifier(Language.THAI),
        seeds=(SEED,),
    )


def _canon(result) -> str:
    return json.dumps(report_payload(result), sort_keys=True)


class _KillSignal(BaseException):
    """Simulated hard kill (BaseException so nothing swallows it)."""


class _BackoffKillHook(EngineHook):
    """Raises from the N-th retry backoff — a process death mid-round."""

    def __init__(self, kill_at_backoff: int | None = None) -> None:
        self.backoffs_seen = 0
        self.kill_at_backoff = kill_at_backoff

    def on_retry(self, candidate, attempt: int) -> None:
        self.backoffs_seen += 1
        if self.kill_at_backoff is not None and self.backoffs_seen == self.kill_at_backoff:
            self.kill_at_backoff = None  # one kill; the resumed run proceeds
            raise _KillSignal()


class TestLifecycleThroughManager:
    def test_open_step_report_close(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        status = manager.open("s", _request(tiny_web))
        assert status.state == "open"
        status = manager.step("s", 3)
        assert status.steps == 3
        result = manager.close("s")
        assert result.pages_crawled >= 3
        with pytest.raises(SessionError, match="no session"):
            manager.status("s")

    def test_duplicate_name_rejected(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        with pytest.raises(SessionError, match="already open"):
            manager.open("s", _request(tiny_web))

    def test_failed_open_releases_the_name(self, tiny_web, tmp_path):
        # A spec that fails to open (here: unknown strategy name, only
        # resolved inside CrawlSession.open) must not wedge the name.
        manager = SessionManager(spool_dir=tmp_path)
        bad = CrawlRequest(
            strategy="no-such-strategy",
            web=tiny_web,
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
        )
        with pytest.raises(ConfigError, match="unknown strategy"):
            manager.open("s", bad)
        with pytest.raises(SessionError, match="no session"):
            manager.status("s")
        assert manager.open("s", _request(tiny_web)).state == "open"
        manager.close("s")

    def test_step_after_concurrent_close_raises(self, tiny_web, tmp_path):
        # A racer that fetched the record before close() removed it from
        # the table must fail loudly, not resurrect a zombie session
        # from the deleted spools.
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        record = manager._get("s")
        manager.close("s")
        assert record.closed
        with pytest.raises(SessionError, match="closed"):
            with record.lock:
                manager._ensure_resident(record)

    def test_refused_budget_leaves_the_session_clean(self, tiny_web):
        # No spool dir and no periodic checkpoint: a record left dirty
        # could never step again.
        manager = SessionManager()
        manager.open("s", _request(tiny_web))
        with pytest.raises(ConfigError, match="budget.*-5"):
            manager.step("s", -5)
        assert manager.step("s", 0).steps == 0
        assert manager.step("s", 3).steps == 3
        manager.close("s")

    def test_step_many_steps_every_session(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        for name in ("a", "b", "c"):
            manager.open(name, _request(tiny_web))
        statuses = manager.step_many([("a", 2), ("b", 2), ("c", 2)])
        assert [s.steps for s in statuses] == [2, 2, 2]
        manager.close_all()


#: Names that could leave the spool dir, or are not names at all.
BAD_SESSION_NAMES = ["../escaped", "", ".hidden", "..", "a/b", "a\\b", "s\n", "s p", {"x": 1}, 5]


class TestSessionNames:
    @pytest.mark.parametrize("name", BAD_SESSION_NAMES, ids=repr)
    def test_a_name_that_is_not_a_spool_stem_is_refused(self, tiny_web, tmp_path, name):
        spool = tmp_path / "spool"
        manager = SessionManager(spool_dir=spool, max_resident=1)
        for config in (None, SessionConfig(checkpoint_every=2)):
            with pytest.raises(SessionError, match="session name"):
                manager.open(name, _request(tiny_web), config)
        assert manager.names() == []
        # Opening a second session evicts the first under the cap: only
        # a name that passed the check can ever be spooled.
        manager.open("a", _request(tiny_web), SessionConfig(checkpoint_every=2))
        manager.step("a", 3)
        manager.open("b", _request(tiny_web))
        assert [path.name for path in tmp_path.iterdir()] == ["spool"]
        assert sorted(path.name for path in spool.iterdir()) == [
            "a.evict.ckpt",
            "a.periodic.ckpt",
        ]
        manager.close_all()

    def test_spool_stems_are_accepted(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path, max_resident=1)
        for name in ("s", "S-1", "thai000", "a.b_c", "-x", "_"):
            manager.open(name, _request(tiny_web))
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
            f"{name}.evict.ckpt" for name in ("s", "S-1", "thai000", "a.b_c", "-x")
        )
        manager.close_all()
        assert list(tmp_path.iterdir()) == []


class TestEviction:
    def test_explicit_evict_then_resume_is_byte_identical(self, tiny_web, tmp_path):
        full = run_crawl(_request(tiny_web))
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        manager.step("s", 2)
        manager.evict("s")
        assert manager.status("s").state == "evicted"
        while not manager.step("s", 2).done:
            manager.evict("s")  # evict between every pair of steps
        assert _canon(manager.close("s")) == _canon(full)

    def test_resident_cap_forces_lru_eviction(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path, max_resident=1)
        manager.open("a", _request(tiny_web))
        manager.open("b", _request(tiny_web))
        stats = manager.stats()
        assert stats["resident"] == 1 and stats["evicted"] == 1
        # Stepping the evicted one transparently swaps residency.
        manager.step("a", 1)
        assert manager.status("a").state == "open"
        assert manager.status("b").state == "evicted"

    def test_interleaved_sessions_under_cap_match_one_shots(self, tiny_web, tmp_path):
        soft_full = run_crawl(_request(tiny_web, SimpleStrategy(mode="soft")))
        bfs_full = run_crawl(_request(tiny_web))
        manager = SessionManager(spool_dir=tmp_path, max_resident=1)
        manager.open("soft", _request(tiny_web, SimpleStrategy(mode="soft")))
        manager.open("bfs", _request(tiny_web))
        done: set[str] = set()
        while len(done) < 2:
            for name in ("soft", "bfs"):
                if name not in done and manager.step(name, 1).done:
                    done.add(name)
        assert manager.stats()["evictions"] > 0, "cap=1 must have evicted"
        assert _canon(manager.report("soft")) == _canon(soft_full)
        assert _canon(manager.report("bfs")) == _canon(bfs_full)

    def test_evict_idle_by_logical_ticks(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("old", _request(tiny_web))
        manager.open("hot", _request(tiny_web))
        for _ in range(5):
            manager.step("hot", 1)
        assert manager.evict_idle(idle_for=3) == ["old"]
        assert manager.status("old").state == "evicted"
        assert manager.status("hot").state == "open"

    def test_evict_without_spool_dir_fails_loudly(self, tiny_web):
        manager = SessionManager()
        manager.open("s", _request(tiny_web))
        with pytest.raises(SessionError, match="spool_dir"):
            manager.evict("s")

    def test_close_removes_spool_files(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        manager.step("s", 1)
        manager.evict("s")
        assert list(tmp_path.glob("s.*.ckpt"))
        manager.step("s", 1)
        manager.close("s")
        assert not list(tmp_path.glob("s.*.ckpt"))

    def test_spool_exists_only_while_evicted(self, tiny_web, tmp_path):
        """Absent while resident, present while evicted: every eviction's
        rename lands on an absent name, and a live session leaves
        nothing of its own on disk."""
        spool = tmp_path / "s.evict.ckpt"
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        assert not spool.exists()
        for _ in range(3):
            manager.step("s", 1)
            assert not spool.exists()
            manager.evict("s")
            assert spool.exists() and not list(tmp_path.glob("*.tmp"))
        manager.report("s")  # a report makes it resident again, too
        assert not spool.exists()
        manager.close("s")
        assert not list(tmp_path.iterdir())

    def test_a_spool_that_fails_to_resume_is_kept(self, tiny_web, tmp_path):
        spool = tmp_path / "s.evict.ckpt"
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        manager.step("s", 1)
        manager.evict("s")
        good = spool.read_bytes()

        def rename_loop(sections):
            sections["pool"] = sections.pop("loop")

        reseal_checkpoint(spool, spool, mutate=rename_loop)
        with pytest.raises(CheckpointError, match="unknown section 'pool'"):
            manager.step("s", 1)
        assert spool.exists(), "the only copy of the session must survive a failed resume"
        spool.write_bytes(good)
        assert manager.step("s", 1).steps == 2
        assert not spool.exists()

    def test_close_without_spool_dir_deletes_nothing_of_the_callers(
        self, tiny_web, tmp_path, monkeypatch
    ):
        """A manager with no spool dir never wrote a spool, so it has
        none to delete — in particular not a file of that name in the
        working directory."""
        monkeypatch.chdir(tmp_path)
        bystander = tmp_path / "s1.evict.ckpt"
        bystander.write_text("not the manager's")
        manager = SessionManager()
        manager.open("s1", _request(tiny_web))
        manager.step("s1", 1)
        manager.close("s1")
        assert bystander.read_text() == "not the manager's"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["s1.evict.ckpt"]

    def test_close_removes_defaulted_periodic_checkpoint(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web), SessionConfig(checkpoint_every=1))
        manager.step("s", 2)
        assert (tmp_path / "s.periodic.ckpt").exists()
        manager.close("s")
        assert not list(tmp_path.glob("s.*.ckpt"))

    def test_close_keeps_caller_supplied_checkpoint(self, tiny_web, tmp_path):
        # The manager only owns checkpoints it defaulted into its spool
        # dir; a caller-supplied path is the caller's resume artifact.
        mine = tmp_path / "mine.ckpt"
        manager = SessionManager(spool_dir=tmp_path / "spool")
        manager.open(
            "s",
            _request(tiny_web),
            SessionConfig(checkpoint_every=1, checkpoint_path=mine),
        )
        manager.step("s", 2)
        manager.close("s")
        assert mine.exists()

    def test_progress_reports_leave_no_trace(self, tiny_web, tmp_path):
        # A report mid-crawl must not pollute the series that eviction
        # spools: the final report still matches a one-shot run.
        full = run_crawl(_request(tiny_web))
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web))
        while not manager.step("s", 2).done:
            manager.report("s")
            manager.evict("s")
        assert _canon(manager.close("s")) == _canon(full)


class TestEvictEveryStepOnGoldens:
    """Eviction identity at golden scale: a session evicted after *every*
    step — so every step resumes from a spool the step before wrote —
    fetches what the uninterrupted crawl fetches and reports what it
    reports, for every golden strategy, round-based and at K=8."""

    BUDGET = 90  # pages a step: 12 evict/resume cycles over a full 1100-page crawl

    @pytest.fixture(scope="class")
    def dataset(self):
        return golden_dataset()

    def _crawl(self, dataset, name, concurrency, rows):
        request = CrawlRequest(strategy=golden_strategies()[name](), dataset=dataset)
        config = SessionConfig(
            max_pages=GOLDEN_MAX_PAGES,
            sample_interval=50,
            concurrency=concurrency,
            on_fetch=lambda event: rows.append(
                {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
            ),
        )
        return request.resolve(), config

    @pytest.mark.parametrize("concurrency", [None, 8])
    @pytest.mark.parametrize("name", sorted(golden_strategies()))
    def test_evicted_every_step_equals_uninterrupted(self, dataset, name, concurrency, tmp_path):
        expected_rows: list[dict] = []
        expected = CrawlSession(*self._crawl(dataset, name, concurrency, expected_rows)).run()
        if concurrency is None:
            golden = read_golden_trace(GOLDEN_FIXTURE_DIR / f"{name}.jsonl")[1]
            assert first_divergence(golden, expected_rows) is None

        rows: list[dict] = []
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", *self._crawl(dataset, name, concurrency, rows))
        while not manager.step("s", self.BUDGET).done:
            manager.evict("s")
        cycles = (len(expected_rows) - 1) // self.BUDGET
        assert manager.stats()["evictions"] == manager.stats()["resumes"] == cycles >= 6
        divergence = first_divergence(expected_rows, rows)
        assert divergence is None, f"{name} K={concurrency}, evicted every step: {divergence}"
        assert _canon(manager.close("s")) == _canon(expected)


class TestUnresumableStrategyStaysResident:
    """``backlink-count`` keeps a cross-page table no checkpoint section
    carries: evicted every 90 pages it used to leave the direct run's
    fetch sequence at fetch 92, silently.  The residency cap now skips
    it, and asking for the eviction by name is an error."""

    def _crawl(self, dataset, name, rows):
        request = CrawlRequest(strategy=name, dataset=dataset)
        config = SessionConfig(
            max_pages=GOLDEN_MAX_PAGES,
            sample_interval=50,
            on_fetch=lambda event: rows.append({"step": event.step, "url": event.url}),
        )
        return request.resolve(), config

    def test_served_beside_an_evictable_session_equals_the_direct_run(self, tmp_path):
        dataset = golden_dataset()
        expected_rows: dict[str, list] = {"backlink-count": [], "soft-focused": []}
        expected = {
            name: CrawlSession(*self._crawl(dataset, name, rows)).run()
            for name, rows in expected_rows.items()
        }
        rows: dict[str, list] = {name: [] for name in expected}
        manager = SessionManager(spool_dir=tmp_path, max_resident=1)
        for name in expected:
            manager.open(name, *self._crawl(dataset, name, rows[name]))
        done = False
        while not done:
            # Each step of one would evict the other; only soft-focused goes.
            done = all([manager.step(name, 90).done for name in expected])
            assert manager.status("backlink-count").state == "open"
        stats = manager.stats()
        assert stats["evictions"] == stats["resumes"] >= 6
        for name in expected:
            assert first_divergence(expected_rows[name], rows[name]) is None, name
            assert _canon(manager.close(name)) == _canon(expected[name])

    @pytest.mark.parametrize("name", ["backlink-count", "distilled-soft", "pdd-hybrid"])
    def test_explicit_evict_and_snapshot_are_a_named_error(self, tiny_web, tmp_path, name):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web, name), SessionConfig())
        manager.step("s", 1)
        with pytest.raises(CheckpointError, match=f"{name}.*cross-page tables"):
            manager.evict("s")
        assert manager.evict_idle(0) == []
        assert not list(tmp_path.iterdir())
        manager.step("s")  # still resident, still crawling
        session = CrawlSession(_request(tiny_web, name))
        with pytest.raises(CheckpointError, match=name):
            session.snapshot()
        with pytest.raises(CheckpointError, match=name):
            session.save_checkpoint(tmp_path / "never.ckpt")
        assert not session.resumable and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("field", ["checkpoint_every", "resume_from"])
    def test_a_checkpointing_config_is_refused_at_open(self, tiny_web, tmp_path, field):
        donor = CrawlSession(_request(tiny_web))
        donor.step(1)
        extra = (
            {"checkpoint_every": 2, "checkpoint_path": tmp_path / "p.ckpt"}
            if field == "checkpoint_every"
            else {"resume_from": donor.snapshot()}
        )
        with pytest.raises(CheckpointError, match="backlink-count.*cross-page tables"):
            CrawlSession(_request(tiny_web, "backlink-count"), SessionConfig(**extra)).open()


class TestSpilledSessionIsEvicted:
    """A spilled queue snapshots like any other, so the residency cap
    spools a spilled session and resumes it.  One resident spilled
    session used to make a second session's ``open`` and ``step`` raise
    ``CheckpointError``."""

    def test_spilled_beside_a_plain_session_equals_the_direct_runs(self, tmp_path):
        dataset = golden_dataset()
        configs = {
            "spilled": SessionConfig(
                max_pages=GOLDEN_MAX_PAGES, sample_interval=50,
                frontier=SpillConfig(memory_limit=40),
            ),
            "plain": SessionConfig(max_pages=GOLDEN_MAX_PAGES, sample_interval=50),
        }
        expected = {
            name: run_crawl(CrawlRequest(strategy="soft-focused", dataset=dataset), config=config)
            for name, config in configs.items()
        }
        manager = SessionManager(spool_dir=tmp_path, max_resident=1)
        for name, config in configs.items():
            manager.open(name, CrawlRequest(strategy="soft-focused", dataset=dataset), config)
        assert manager.status("spilled").state == "evicted"
        done = False
        while not done:
            done = all([manager.step(name, 90).done for name in configs])
            assert manager.status("spilled").state == "evicted" or done
        assert manager.stats()["resumes"] >= 6
        for name in configs:
            assert _canon(manager.close(name)) == _canon(expected[name])


class TestSharedConfig:
    def test_interleaved_sessions_of_one_config_each_equal_their_direct_run(
        self, tiny_web, tmp_path
    ):
        config = SessionConfig(
            sample_interval=1,
            concurrency=2,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
        )
        strategies = {"bfs": BreadthFirstStrategy, "soft": lambda: SimpleStrategy(mode="soft")}
        manager = SessionManager(spool_dir=tmp_path)
        for name, factory in strategies.items():
            manager.open(name, _request(tiny_web, factory()), config)
        while not all(manager.status(name).done for name in strategies):
            for name in strategies:
                manager.step(name, 1)
        for name, factory in strategies.items():
            served = manager.close(name)
            direct = run_crawl(_request(tiny_web, factory()), config=config)
            assert _canon(served) == _canon(direct), name
            assert served.resilience == direct.resilience, name


class TestMidBackoffEviction:
    """TestBackoffBoundaryKill, driven through the SessionManager.

    A step that dies inside a retry backoff leaves in-flight attempt
    tallies in the live engine.  Eviction must fall back to the last
    step-boundary checkpoint instead of snapshotting that state — the
    resumed session then replays the whole fetch round, and every
    resilience counter matches an uninterrupted run exactly (nothing
    double-counted).
    """

    def _faulty_config(self, killer, **extra) -> SessionConfig:
        return SessionConfig(
            sample_interval=1,
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            timing=TimingModel(),
            hooks=(killer,),
            checkpoint_every=1,
            **extra,
        )

    def _run_reference(self, tiny_web, tmp_path):
        counter = _BackoffKillHook()  # never kills; counts backoffs
        manager = SessionManager(spool_dir=tmp_path / "ref")
        manager.open("ref", _request(tiny_web), self._faulty_config(counter))
        manager.step("ref")
        result = manager.report("ref")
        manager.close("ref")
        return result, counter.backoffs_seen

    def test_kill_evict_resume_never_double_counts(self, tiny_web, tmp_path):
        full, backoffs = self._run_reference(tiny_web, tmp_path)
        assert backoffs > 0, "profile must exercise retries"
        assert full.resilience["retries"] > 0

        for kill_at in range(1, backoffs + 1):
            manager = SessionManager(spool_dir=tmp_path / f"kill{kill_at}")
            manager.open(
                "s",
                _request(tiny_web),
                self._faulty_config(_BackoffKillHook(kill_at)),
            )
            with pytest.raises(_KillSignal):
                manager.step("s")
            # The record is dirty: eviction must not snapshot it.
            manager.evict("s")
            assert manager.status("s").state == "evicted"
            # Transparent resume from the step-boundary checkpoint.
            manager.step("s")
            resumed = manager.report("s")
            assert resumed.pages_crawled == full.pages_crawled, f"kill_at={kill_at}"
            assert resumed.series.to_dict() == full.series.to_dict(), f"kill_at={kill_at}"
            for key in ("retries", "requeued", "dropped", "fetches_failed"):
                assert resumed.resilience[key] == full.resilience[key], (
                    f"kill_at={kill_at}: {key} double-counted across the "
                    "evict/resume boundary"
                )
            manager.close("s")

    def test_step_after_kill_auto_recovers(self, tiny_web, tmp_path):
        full, backoffs = self._run_reference(tiny_web, tmp_path)
        manager = SessionManager(spool_dir=tmp_path / "auto")
        manager.open("s", _request(tiny_web), self._faulty_config(_BackoffKillHook(1)))
        with pytest.raises(_KillSignal):
            manager.step("s")
        # No explicit evict/recover: the next step must notice the dirty
        # record and resume from the checkpoint on its own.
        manager.step("s")
        resumed = manager.report("s")
        for key in ("retries", "requeued", "dropped", "fetches_failed"):
            assert resumed.resilience[key] == full.resilience[key]
        manager.close("s")

    def test_recover_explicitly(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open("s", _request(tiny_web), self._faulty_config(_BackoffKillHook(1)))
        with pytest.raises(_KillSignal):
            manager.step("s")
        status = manager.recover("s")
        assert status.state == "open"
        manager.close("s")

    def test_dirty_session_falls_back_to_periodic_not_to_a_spool(self, tiny_web, tmp_path):
        """The spool of an earlier eviction is gone by the time a later
        step dies, so the fallback is the periodic checkpoint — which a
        resume from it must leave in place."""
        full, _ = self._run_reference(tiny_web, tmp_path)
        spool_dir = tmp_path / "spool"
        manager = SessionManager(spool_dir=spool_dir)
        manager.open("s", _request(tiny_web), self._faulty_config(_BackoffKillHook(2)))
        manager.step("s", 1)
        manager.evict("s")  # a clean eviction first: writes the spool
        with pytest.raises(_KillSignal):
            manager.step("s")  # resumes (spool deleted), then dies mid-backoff
        assert not (spool_dir / "s.evict.ckpt").exists()
        manager.evict("s")  # dirty: falls back to the periodic checkpoint
        assert not (spool_dir / "s.evict.ckpt").exists()
        manager.step("s")
        assert (spool_dir / "s.periodic.ckpt").exists()
        resumed = manager.report("s")
        assert resumed.series.to_dict() == full.series.to_dict()
        for key in ("retries", "requeued", "dropped", "fetches_failed"):
            assert resumed.resilience[key] == full.resilience[key], key
        manager.close("s")
        assert not list(spool_dir.iterdir())

    def test_dirty_evict_without_checkpoint_refuses(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        manager.open(
            "s",
            _request(tiny_web),
            SessionConfig(
                sample_interval=1,
                faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
                timing=TimingModel(),
                hooks=(_BackoffKillHook(1),),
            ),
        )
        with pytest.raises(_KillSignal):
            manager.step("s")
        with pytest.raises(SessionError, match="double-count"):
            manager.evict("s")
