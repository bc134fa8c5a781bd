"""Tests of the CrawlSession lifecycle and the typed request/config API.

CrawlSession is the object every run flows through — run_crawl and
the serve layer are wrappers over it — so these tests pin its
lifecycle contract (open → step → report → close), its snapshot/resume
byte-identity, and that the request/config pair is the only way in.
"""

import json
import warnings
from dataclasses import replace

import pytest

from repro import (
    CrawlRequest,
    CrawlSession,
    SessionConfig,
    report_payload,
    run_crawl,
)
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.parallel import ParallelConfig, ParallelResult, PartitionMode
from repro.core.strategies import BreadthFirstStrategy
from repro.errors import ConfigError, SessionError

from conftest import SEED


def _request(web) -> CrawlRequest:
    return CrawlRequest(
        strategy=BreadthFirstStrategy(),
        web=web,
        classifier=Classifier(Language.THAI),
        seeds=(SEED,),
    )


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


class TestLifecycle:
    def test_states_new_open_closed(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        assert session.state == "new"
        session.open()
        assert session.state == "open"
        session.close()
        assert session.state == "closed"

    def test_open_is_idempotent(self, tiny_web):
        session = CrawlSession(_request(tiny_web)).open()
        before = session.steps
        session.open()
        assert session.steps == before

    def test_closed_session_cannot_reopen(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        session.close()
        with pytest.raises(SessionError, match="closed"):
            session.open()

    def test_step_budget_controls_progress(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        assert session.step(2) == 2
        assert session.steps == 2
        assert not session.done
        session.step()  # to exhaustion
        assert session.done
        session.close()

    def test_step_returns_zero_once_done(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        session.step()
        assert session.done
        assert session.step(5) == 0
        session.close()

    def test_negative_budget_is_a_config_error(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        with pytest.raises(ConfigError, match="budget.*-5"):
            session.step(-5)
        assert session.steps == 0
        assert session.step(0) == 0  # zero stays a legal no-op
        assert session.step(2) == 2
        session.close()

    def test_status_reflects_progress(self, tiny_web):
        session = CrawlSession(_request(tiny_web))
        status = session.status()
        assert status.state == "new" and status.steps == 0
        session.step(3)
        status = session.status()
        assert status.steps == 3
        assert status.scheduled >= status.steps
        session.close()

    def test_mid_crawl_report_then_final_report(self, tiny_web):
        one_shot = CrawlSession(_request(tiny_web)).run()
        session = CrawlSession(_request(tiny_web))
        session.step(2)
        partial = session.report()
        assert partial.pages_crawled == 2
        session.step()
        final = session.report()
        assert final.pages_crawled > partial.pages_crawled
        # Progress reports leave no trace: the final report (series
        # included) is byte-identical to a run never asked for one.
        assert _canon(report_payload(final)) == _canon(report_payload(one_shot))
        session.close()

    def test_snapshot_after_mid_crawl_report_resumes_identically(self, tiny_web):
        full = CrawlSession(_request(tiny_web)).run()
        session = CrawlSession(_request(tiny_web))
        session.step(2)
        session.report()  # must not pollute the snapshot's series
        state = session.snapshot()
        session.close()
        resumed = CrawlSession(_request(tiny_web), SessionConfig(resume_from=state))
        assert _canon(report_payload(resumed.run())) == _canon(report_payload(full))

    def test_max_pages_marks_done(self, tiny_web):
        session = CrawlSession(_request(tiny_web), SessionConfig(max_pages=3))
        session.step()
        assert session.done
        assert session.report().pages_crawled == 3
        session.close()

    def test_run_matches_stepped_session(self, tiny_web):
        one_shot = CrawlSession(_request(tiny_web)).run()
        stepped = CrawlSession(_request(tiny_web))
        while not stepped.done:
            stepped.step(1)
        try:
            assert _canon(report_payload(stepped.report())) == _canon(
                report_payload(one_shot)
            )
        finally:
            stepped.close()

    def test_parallel_config_runs_a_partitioned_session(self, tiny_web):
        request = replace(_request(tiny_web), strategy=BreadthFirstStrategy)
        config = SessionConfig(parallel=ParallelConfig(partitions=2))
        result = CrawlSession(request, config).run()
        assert isinstance(result, ParallelResult)
        assert result == run_crawl(request, config=config)
        with pytest.raises(ConfigError, match="factory"):
            CrawlSession(_request(tiny_web), config).open()

    def test_request_type_is_checked(self, tiny_web):
        with pytest.raises(ConfigError, match="CrawlRequest"):
            CrawlSession({"strategy": "breadth-first"})


class TestSnapshotResume:
    def test_snapshot_resume_is_byte_identical(self, tiny_web):
        full = CrawlSession(_request(tiny_web)).run()

        first = CrawlSession(_request(tiny_web))
        first.step(3)
        state = first.snapshot()
        first.close()

        resumed = CrawlSession(
            _request(tiny_web), SessionConfig(resume_from=state)
        )
        result = resumed.run()
        assert _canon(report_payload(result)) == _canon(report_payload(full))

    def test_save_checkpoint_round_trips_through_disk(self, tiny_web, tmp_path):
        full = CrawlSession(_request(tiny_web)).run()
        path = tmp_path / "spool.ckpt"

        first = CrawlSession(_request(tiny_web))
        first.step(2)
        first.save_checkpoint(path)
        first.close()

        result = CrawlSession(
            _request(tiny_web), SessionConfig(resume_from=path)
        ).run()
        assert _canon(report_payload(result)) == _canon(report_payload(full))

    def test_snapshot_does_not_count_as_checkpoint_write(self, tiny_web, tmp_path):
        session = CrawlSession(
            _request(tiny_web),
            SessionConfig(checkpoint_every=2, checkpoint_path=tmp_path / "p.ckpt"),
        )
        session.step(2)
        written_before = session.status().checkpoints_written
        session.snapshot()
        assert session.status().checkpoints_written == written_before
        session.close()


class TestRequestValidation:
    def test_params_require_registry_name(self, tiny_web):
        request = CrawlRequest(
            strategy=BreadthFirstStrategy(), params={"n": 2}, web=tiny_web
        )
        with pytest.raises(ConfigError, match="registry-name"):
            request.build_strategy()

    def test_registry_name_with_params(self, tiny_web):
        request = CrawlRequest(strategy="limited-distance", params={"n": 2})
        strategy = request.build_strategy()
        assert "limited-distance" in strategy.name

    def test_web_and_dataset_conflict(self, tiny_web, thai_dataset):
        with pytest.raises(ConfigError, match="not both"):
            CrawlRequest(
                strategy="breadth-first", web=tiny_web, dataset=thai_dataset
            ).resolve()

    def test_web_requires_classifier_and_seeds(self, tiny_web):
        with pytest.raises(ConfigError, match="classifier"):
            CrawlRequest(strategy="breadth-first", web=tiny_web).resolve()
        with pytest.raises(ConfigError, match="seeds"):
            CrawlRequest(
                strategy="breadth-first",
                web=tiny_web,
                classifier=Classifier(Language.THAI),
            ).resolve()

    def test_dataset_supplies_defaults(self, thai_dataset):
        resolved = CrawlRequest(strategy="soft-focused", dataset=thai_dataset).resolve()
        assert resolved.web is not None
        assert resolved.classifier is not None
        assert resolved.seeds
        assert resolved.relevant_urls


class TestDeprecatedSurface:
    """The deprecated spellings are deleted, not shimmed: what they took
    is an error now, and the spellings that remain agree with each other."""

    def test_simulator_is_not_importable(self):
        with pytest.raises(ImportError):
            from repro import Simulator  # noqa: F401

    def test_partition_mode_takes_no_strings(self):
        with pytest.raises(ConfigError, match="PartitionMode"):
            ParallelConfig(mode="firewall")

    def test_unknown_kwarg_is_a_type_error(self, tiny_web):
        with pytest.raises(TypeError, match="unexpected"):
            run_crawl(web=tiny_web, strategy=BreadthFirstStrategy())

    def test_request_plus_legacy_kwargs_conflict(self, tiny_web):
        with pytest.raises(TypeError, match="unexpected"):
            run_crawl(_request(tiny_web), strategy="breadth-first")

    def test_session_config_plus_loose_kwargs_conflict(self, tiny_web):
        with pytest.raises(TypeError, match="unexpected"):
            run_crawl(_request(tiny_web), config=SessionConfig(), faults=None)

    def test_request_form_does_not_warn(self, tiny_web):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_crawl(_request(tiny_web))

    def test_both_paths_report_identically(self, tiny_web):
        config = SessionConfig(sample_interval=2)
        one_shot = run_crawl(_request(tiny_web), config=config)
        session = CrawlSession(_request(tiny_web), config).run()
        assert _canon(report_payload(one_shot)) == _canon(report_payload(session))

    def test_parallel_paths_report_identically(self, tiny_web):
        parallel = ParallelConfig(partitions=2, mode=PartitionMode.EXCHANGE)
        request = CrawlRequest(
            strategy=BreadthFirstStrategy,
            web=tiny_web,
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
        )
        bare = run_crawl(request, config=parallel)
        carried = run_crawl(request, config=SessionConfig(parallel=parallel))
        assert isinstance(bare, ParallelResult) and isinstance(carried, ParallelResult)
        assert bare.to_dict() == carried.to_dict()
