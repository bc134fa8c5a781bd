"""Unit tests of the engine's slotted (``concurrency=K``) surface.

The golden and checkpoint suites pin the scheduler's *behaviour*
(ordering, kill/resume byte-identity); these tests pin its *edges* —
construction validation, pending-work reporting, virtual-clock
monotonicity, the in-flight response serialisation, and checkpoint
format-v2 compatibility with v1 files.
"""

from __future__ import annotations

import json

import pytest

from repro.core.checkpoint import (
    FORMAT_VERSION,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.classifier import Classifier
from repro.core.engine import CrawlEngine, response_from_dict, response_to_dict
from repro.core.parallel import ParallelConfig
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import get_strategy
from repro.core.timing import TimingModel, zero_latency_timing
from repro.core.visitor import Visitor
from repro.errors import CheckpointError, ConfigError
from repro.webspace.virtualweb import FetchResponse

from repro.api import run_crawl

from conftest import SEED, A, C, F, legacy_checkpoint

THAI_SET = frozenset({SEED, A, C, F})


def build_engine(web, *, concurrency=2, **kwargs):
    strategy = get_strategy("breadth-first")
    engine = CrawlEngine(
        concurrency=concurrency,
        frontier=strategy.make_frontier(),
        visitor=Visitor(web),
        classifier=Classifier("thai"),
        strategy=strategy,
        clock=TimingModel().clock(),
        **kwargs,
    )
    engine.seed([SEED])
    return engine


def session(web, **config):
    config.setdefault("sample_interval", 1)
    return CrawlSession(
        CrawlRequest(
            strategy=get_strategy("breadth-first"),
            web=web,
            classifier=Classifier("thai"),
            seeds=(SEED,),
            relevant_urls=THAI_SET,
        ),
        SessionConfig(**config),
    )


class TestConstruction:
    def test_engine_requires_timing(self, tiny_web):
        strategy = get_strategy("breadth-first")
        with pytest.raises(ConfigError, match="clock"):
            CrawlEngine(
                concurrency=2,
                frontier=strategy.make_frontier(),
                visitor=Visitor(tiny_web),
                classifier=Classifier("thai"),
                strategy=strategy,
            )

    def test_engine_rejects_zero_concurrency(self, tiny_web):
        with pytest.raises(ConfigError, match=">= 1"):
            build_engine(tiny_web, concurrency=0)

    def test_session_rejects_zero_concurrency(self, tiny_web):
        with pytest.raises(ConfigError, match=">= 1"):
            session(tiny_web, concurrency=0)

    def test_concurrency_alone_is_a_complete_configuration(self, tiny_web):
        """``concurrency=K`` without ``timing=`` defaults a stock clock."""
        result = session(tiny_web, concurrency=2).run()
        assert result.pages_crawled > 0
        assert result.summary.simulated_seconds > 0

    def test_concurrency_does_not_combine_with_parallel(self, tiny_web):
        with pytest.raises(ConfigError, match="partitioned"):
            run_crawl(
                CrawlRequest(
                    strategy="breadth-first",
                    web=tiny_web,
                    classifier=Classifier("thai"),
                    seeds=(SEED,),
                    relevant_urls=THAI_SET,
                ),
                config=SessionConfig(
                    parallel=ParallelConfig(partitions=2), concurrency=2
                ),
            )


class TestPendingWork:
    def test_seeded_engine_has_pending_work(self, tiny_web):
        engine = build_engine(tiny_web)
        assert engine.has_pending_work
        assert engine.in_flight == 0

    def test_drained_engine_has_none(self, tiny_web):
        engine = build_engine(tiny_web)
        engine.run()
        assert not engine.has_pending_work
        assert engine.in_flight == 0
        assert not bool(engine.frontier)

    def test_session_done_routes_through_it(self, tiny_web):
        crawl = session(tiny_web, concurrency=3).open()
        assert not crawl.done
        while not crawl.done:
            crawl.step(1)
        report = crawl.report()
        crawl.close()
        assert report.pages_crawled > 0


class TestVirtualClock:
    def test_completion_times_are_monotone_under_concurrency(self, tiny_web):
        times: list[float] = []
        session(
            tiny_web,
            concurrency=3,
            on_fetch=lambda event: times.append(event.sim_time),
        ).run()
        assert len(times) > 1
        assert times == sorted(times)

    def test_zero_latency_clock_completes_instantly(self, tiny_web):
        times: list[float] = []
        session(
            tiny_web,
            concurrency=3,
            timing=zero_latency_timing(),
            on_fetch=lambda event: times.append(event.sim_time),
        ).run()
        assert set(times) == {0.0}


class TestResponseSerde:
    def test_round_trip_reattaches_record(self, tiny_web):
        response = Visitor(tiny_web).fetch(SEED)
        assert response.record is not None
        restored = response_from_dict(
            response_to_dict(response), tiny_web.crawl_log
        )
        assert restored == response
        assert restored.record is tiny_web.crawl_log.get(SEED)

    def test_round_trip_preserves_body_bytes(self, tiny_web):
        response = FetchResponse(
            url=SEED,
            status=200,
            content_type="text/html",
            charset="TIS-620",
            outlinks=(A, C),
            size=1234,
            body=b"\x00garbled\xffbytes",
            record=None,
            truncated=True,
            fault="truncate",
        )
        entry = json.loads(json.dumps(response_to_dict(response)))
        restored = response_from_dict(entry, tiny_web.crawl_log)
        assert restored == response
        assert restored.record is None

    def test_missing_record_is_a_checkpoint_error(self, tiny_web):
        entry = response_to_dict(Visitor(tiny_web).fetch(SEED))
        entry["url"] = "http://not-in-this.log/"
        with pytest.raises(CheckpointError, match="no record"):
            response_from_dict(entry, tiny_web.crawl_log)


class TestCheckpointFormatV2:
    def test_sched_section_round_trips_through_file(self, tiny_web, tmp_path):
        crawl = session(tiny_web, concurrency=3, timing=TimingModel()).open()
        crawl.step(1)
        state = crawl.snapshot()
        crawl.close()
        assert state.sched is not None
        path = tmp_path / "sched.ckpt"
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        assert loaded.sched == state.sched
        assert loaded.sched["concurrency"] == 3
        # Events serialise in canonical (completion, seq) order.
        keys = [(e["completion"], e["seq"]) for e in loaded.sched["events"]]
        assert keys == sorted(keys)

    def test_round_based_checkpoint_has_no_sched_section(self, tiny_web, tmp_path):
        crawl = session(tiny_web, checkpoint_every=None, timing=TimingModel()).open()
        crawl.step(1)
        state = crawl.snapshot()
        crawl.close()
        assert state.sched is None
        path = tmp_path / "round.ckpt"
        write_checkpoint(path, state)
        assert read_checkpoint(path).sched is None

    def test_v1_files_still_read(self, tmp_path):
        """Newer formats only *add* optional sections; a v1 file
        (pre-scheduler) loads with ``sched=None``, in the current
        in-memory shape.  (That a resume from it replays its golden
        trace is ``tests/golden/test_golden_legacy_checkpoints.py``.)"""
        assert FORMAT_VERSION == 5
        loaded = read_checkpoint(legacy_checkpoint("breadth-first", 1, tmp_path))
        assert loaded.steps == 300
        assert loaded.sched is None
        assert loaded.scheduled == 820 <= len(loaded.urls)
        assert sorted(loaded.frontier) == [
            "d", "kind", "p", "peak_size", "pops", "pushes", "r", "u",
        ]
