"""Smoke tests for the fault-sweep experiment.

Kept tiny (one small dataset, two rates, capped pages) — the point is
the sweep's *shape*: monotone setup across rates, zero-rate points that
match a clean run, and a JSON artifact that parses.
"""

import json

import pytest

from repro.experiments.datasets import build_dataset
from repro.experiments.faultsweep import (
    DEFAULT_RATES,
    FaultSweepPoint,
    fault_sweep,
    faultsweep_payload,
    profile_for_rate,
)
from repro.graphgen.profiles import thai_profile


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(thai_profile().scaled(0.02))


@pytest.fixture(scope="module")
def sweep(small_dataset):
    return fault_sweep(
        small_dataset,
        rates=(0.0, 0.3),
        strategies=("breadth-first",),
        max_pages=150,
    )


class TestFaultSweep:
    def test_one_point_per_strategy_rate_pair(self, sweep):
        assert [(p.strategy, p.fault_rate) for p in sweep] == [
            ("breadth-first", 0.0),
            ("breadth-first", 0.3),
        ]

    def test_zero_rate_injects_nothing(self, sweep):
        clean = sweep[0]
        assert clean.faults_injected == 0
        assert clean.retries == 0
        assert clean.fetches_failed == 0

    def test_faults_actually_bite(self, sweep):
        faulty = sweep[1]
        assert faulty.faults_injected > 0
        assert faulty.retries > 0
        # Quality degrades (or at best holds) under faults.
        assert faulty.harvest_rate <= sweep[0].harvest_rate

    def test_profile_for_rate_mix(self):
        profile = profile_for_rate(0.4)
        assert profile.transient_error_rate == 0.4
        assert profile.timeout_rate == 0.2
        assert profile.truncation_rate == 0.2

    def test_default_rates_start_clean(self):
        assert DEFAULT_RATES[0] == 0.0


class TestArtifact:
    def test_json_artifact_shape(self, sweep, small_dataset):
        payload = json.loads(json.dumps(faultsweep_payload(small_dataset, sweep)))
        assert payload["experiment"] == "faultsweep"
        assert payload["dataset"] == small_dataset.name
        assert payload["dataset_pages"] == len(small_dataset.crawl_log)
        assert payload["digest_sha256"]
        assert len(payload["points"]) == len(sweep)
        point = payload["points"][0]
        assert set(point) == set(FaultSweepPoint(
            strategy="x", fault_rate=0.0, pages_crawled=0, harvest_rate=0.0,
            coverage=0.0, fetches_failed=0, retries=0, requeued=0, dropped=0,
            faults_injected=0,
        ).to_dict())
