"""Unit tests for the fault model: profiles, decisions, the wrapper.

Determinism is the load-bearing property — same seed and profile must
yield the identical fault sequence in any query order — so most tests
here compare independently constructed models rather than asserting
specific draws.
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.visitor import Visitor
from repro.errors import ConfigError
from repro.faults import (
    RETRYABLE_FAULTS,
    FaultModel,
    FaultProfile,
    FaultyWebSpace,
    HostOutage,
)
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import (
    STATUS_HOST_DOWN,
    STATUS_SERVER_ERROR,
    STATUS_TIMEOUT,
)
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import SEED, A, thai_page


class TestFaultProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"transient_error_rate": -0.1},
            {"transient_error_rate": 1.5},
            {"timeout_rate": 2.0},
            {"truncation_rate": -1.0},
            {"slow_host_rate": 1.01},
            {"transient_recovery_attempts": 0},
            {"slow_host_multiplier": 0.5},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            FaultProfile(**kwargs)

    def test_json_roundtrip(self):
        profile = FaultProfile(transient_error_rate=0.2, timeout_rate=0.1)
        assert FaultProfile.from_json(profile.to_json()) == profile

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown fault profile keys"):
            FaultProfile.from_json({"transient_rate": 0.5})


class TestHostOutage:
    def test_rejects_bad_window(self):
        with pytest.raises(ConfigError):
            HostOutage(host="a.com", start=5, end=5)
        with pytest.raises(ConfigError):
            HostOutage(host="a.com", start=-1, end=3)

    def test_half_open_window(self):
        outage = HostOutage(host="a.com", start=10, end=20)
        assert not outage.covers(9)
        assert outage.covers(10)
        assert outage.covers(19)
        assert not outage.covers(20)


class TestFaultModelDeterminism:
    URLS = [f"http://h{i % 7}.co.th/page{i}.html" for i in range(200)]

    def _decisions(self, model):
        return [
            model.decide(url, f"h{i % 7}.co.th", attempt, i + 1)
            for i, url in enumerate(self.URLS)
            for attempt in range(3)
        ]

    def test_same_seed_same_sequence(self):
        profile = FaultProfile(
            transient_error_rate=0.3, timeout_rate=0.1, truncation_rate=0.2
        )
        first = self._decisions(FaultModel(profile=profile, seed=11))
        second = self._decisions(FaultModel(profile=profile, seed=11))
        assert first == second
        assert any(kind is not None for kind in first)

    def test_different_seed_differs(self):
        profile = FaultProfile(transient_error_rate=0.3, timeout_rate=0.1)
        assert self._decisions(FaultModel(profile=profile, seed=1)) != self._decisions(
            FaultModel(profile=profile, seed=2)
        )

    def test_rates_are_calibrated(self):
        """A rate of r injects roughly r·n faults over n fresh URLs."""
        model = FaultModel(profile=FaultProfile(truncation_rate=0.25), seed=3)
        hits = sum(
            1
            for i in range(2000)
            if model.decide(f"http://x.co.th/p{i}", "x.co.th", 0, i + 1) == "truncate"
        )
        assert 0.20 < hits / 2000 < 0.30


class TestFaultPrecedence:
    def test_outage_wins(self):
        model = FaultModel(
            profile=FaultProfile(
                transient_error_rate=1.0, timeout_rate=1.0, truncation_rate=1.0
            ),
            outages=(HostOutage(host="a.co.th", start=0, end=100),),
            seed=0,
        )
        assert model.decide("http://a.co.th/", "a.co.th", 0, 1) == "outage"

    def test_timeout_beats_transient(self):
        model = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, timeout_rate=1.0), seed=0
        )
        assert model.decide("http://a.co.th/", "a.co.th", 0, 1) == "timeout"

    def test_transient_recovers_after_k_attempts(self):
        model = FaultModel(
            profile=FaultProfile(
                transient_error_rate=1.0, transient_recovery_attempts=2
            ),
            seed=0,
        )
        url, host = "http://a.co.th/", "a.co.th"
        assert model.decide(url, host, 0, 1) == "transient"
        assert model.decide(url, host, 1, 2) == "transient"
        assert model.decide(url, host, 2, 3) is None

    def test_per_host_override(self):
        model = FaultModel(
            per_host={"bad.co.th": FaultProfile(transient_error_rate=1.0)}, seed=0
        )
        assert model.decide("http://bad.co.th/", "bad.co.th", 0, 1) == "transient"
        assert model.decide("http://good.co.th/", "good.co.th", 0, 2) is None

    def test_latency_scale(self):
        slow = FaultModel(
            profile=FaultProfile(slow_host_rate=1.0, slow_host_multiplier=7.0), seed=0
        )
        assert slow.latency_scale("a.co.th") == 7.0
        assert FaultModel(seed=0).latency_scale("a.co.th") == 1.0


class TestFaultyWebSpace:
    def _web(self):
        return VirtualWebSpace(CrawlLog([thai_page(SEED, outlinks=(A,)), thai_page(A)]))

    def test_clean_model_is_passthrough(self):
        faulty = FaultyWebSpace(self._web(), FaultModel(seed=0))
        response = faulty.fetch(SEED)
        assert response.ok and response.fault is None and not response.truncated

    def test_synthetic_failure_statuses(self):
        statuses = {
            "transient": STATUS_SERVER_ERROR,
            "timeout": STATUS_TIMEOUT,
            "outage": STATUS_HOST_DOWN,
        }
        model = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=99),
            seed=0,
        )
        response = FaultyWebSpace(self._web(), model).fetch(SEED)
        assert response.status == statuses["transient"]
        assert response.fault == "transient"
        assert response.record is None and response.size == 0
        assert response.fault in RETRYABLE_FAULTS

    def test_transient_url_recovers_through_wrapper(self):
        model = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=2),
            seed=0,
        )
        faulty = FaultyWebSpace(self._web(), model)
        assert faulty.fetch(SEED).fault == "transient"
        assert faulty.attempts_of(SEED) == 1
        assert faulty.fetch(SEED).fault == "transient"
        assert faulty.attempts_of(SEED) == 2
        recovered = faulty.fetch(SEED)
        assert recovered.fault is None and recovered.ok
        # Past the recovery threshold the per-URL counter is pruned (the
        # engine never refetches a completed URL, so keeping it would
        # only grow the dict unboundedly).
        assert faulty.attempts_of(SEED) == 0

    def test_truncate_degrades_but_keeps_record(self):
        model = FaultModel(profile=FaultProfile(truncation_rate=1.0), seed=0)
        response = FaultyWebSpace(self._web(), model).fetch(SEED)
        assert response.truncated and response.fault == "truncate"
        assert response.record is not None
        assert response.fault not in RETRYABLE_FAULTS

    def test_truncated_page_judged_irrelevant_not_crash(self):
        """The classifier degrades a garbled page instead of raising."""
        model = FaultModel(profile=FaultProfile(truncation_rate=1.0), seed=0)
        visitor = Visitor(FaultyWebSpace(self._web(), model))
        judgment = Classifier(Language.THAI).judge(visitor.fetch(SEED))
        assert not judgment.relevant
        # The failure accounting sees a page (the record exists), not a
        # failed fetch.
        assert visitor.pages_fetched == 1 and visitor.fetches_failed == 0

    def test_journal_records_injections(self):
        model = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=1),
            seed=0,
        )
        faulty = FaultyWebSpace(self._web(), model, record_journal=True)
        faulty.fetch(SEED)
        faulty.fetch(SEED)
        assert faulty.journal == [(1, SEED, "transient")]

    def test_snapshot_restore_replays_recovery(self):
        model = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=2),
            seed=5,
        )
        faulty = FaultyWebSpace(self._web(), model)
        faulty.fetch(SEED)
        state = faulty.snapshot()

        resumed = FaultyWebSpace(
            self._web(),
            FaultModel(
                profile=FaultProfile(
                    transient_error_rate=1.0, transient_recovery_attempts=2
                ),
                seed=5,
            ),
        )
        resumed.restore(state)
        assert resumed.fetch(SEED).fault == "transient"  # attempt 2 of 2
        assert resumed.fetch(SEED).fault is None  # recovered

    def test_restore_rejects_seed_mismatch(self):
        faulty = FaultyWebSpace(self._web(), FaultModel(seed=1))
        state = faulty.snapshot()
        other = FaultyWebSpace(self._web(), FaultModel(seed=2))
        with pytest.raises(ConfigError, match="seed"):
            other.restore(state)


class TestLoadFaultModel:
    def test_loads_full_shape(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text(
            '{"seed": 9, "global": {"timeout_rate": 0.1},'
            ' "hosts": {"a.co.th": {"transient_error_rate": 0.5}},'
            ' "outages": [{"host": "b.com", "start": 0, "end": 10}]}'
        )
        model = FaultModel.load(path)
        assert model.seed == 9
        assert model.profile.timeout_rate == 0.1
        assert dict(model.per_host)["a.co.th"].transient_error_rate == 0.5
        assert model.outages[0].covers(5)

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read fault model"):
            FaultModel.load(tmp_path / "nope.json")

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            FaultModel.load(path)

    def test_malformed_outage_rejected(self, tmp_path):
        path = tmp_path / "faults.json"
        path.write_text('{"outages": [{"host": "a.com"}]}')
        with pytest.raises(ConfigError, match="malformed host outage"):
            FaultModel.load(path)
