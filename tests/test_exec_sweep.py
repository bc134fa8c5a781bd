"""The sweep executor: the serial/parallel differential and spec hygiene.

The executor's contract is that ``workers > 0`` is *invisible* in the
results — byte-identical to the serial path, merged in submission
order.  These tests pin that differential for every wired sweep entry
point, plus the loud failures for things that cannot cross a process
boundary.
"""

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.core.engine import EngineHook
from repro.core.parallel import ParallelConfig
from repro.core.politeness import HostQueues
from repro.core.session import SessionConfig
from repro.core.timing import TimingModel
from repro.errors import ConfigError
from repro.faults import FaultModel, FaultProfile, HostOutage
from repro.faults.resilience import BreakerPolicy, ResilienceConfig, RetryPolicy
from repro.obs import Instrumentation
from repro.exec import DatasetSpec, RunSpec, SweepExecutor, execute_run
from repro.exec.spec import result_from_payload
from repro.experiments.faultsweep import fault_sweep
from repro.experiments.runner import run_strategies
from repro.experiments.sweep import run_cells, strategy_spec

SWEEP = ["breadth-first", "hard-focused", ("limited-distance", {"n": 2})]


def canonical(results: dict) -> str:
    """Results as sorted JSON (wall_seconds excluded by construction)."""
    return json.dumps(
        {
            name: {
                "series": result.series.to_dict(),
                "summary": dataclasses.asdict(result.summary),
                "resilience": result.resilience,
            }
            for name, result in results.items()
        },
        sort_keys=True,
    )


def _double(value: int) -> int:
    return value * 2


class TestExecutor:
    def test_serial_map_runs_in_process(self):
        executor = SweepExecutor(0)
        assert not executor.parallel
        assert executor.map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_parallel_map_preserves_submission_order(self):
        executor = SweepExecutor(2)
        assert executor.parallel
        assert executor.map(_double, range(8)) == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_single_item_skips_the_pool(self):
        # One task gains nothing from a pool; the executor stays serial.
        assert SweepExecutor(4).map(_double, [21]) == [42]

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigError):
            SweepExecutor(-1)


class TestRunStrategiesDifferential:
    def test_workers_match_serial_byte_for_byte(self, thai_dataset):
        """The in-process live-object loop and the spec path through two
        worker processes are the same sweep."""
        serial = run_strategies(thai_dataset, SWEEP, SessionConfig(max_pages=300))
        dataset_spec = DatasetSpec.from_dataset(thai_dataset)
        runs = run_cells(
            [(ref,) for ref in SWEEP],
            lambda ref: strategy_spec(dataset_spec, ref, config=SessionConfig(max_pages=300)),
            workers=2,
        )
        parallel = {result.strategy: result for _, result in runs}
        assert list(serial) == list(parallel)  # key order = input order
        assert canonical(serial) == canonical(parallel)

    def test_rejects_unknown_strategy_driver_side(self, thai_dataset):
        # Bad names must fail before any crawl starts.
        with pytest.raises(ConfigError, match="no-such-strategy"):
            run_strategies(thai_dataset, ["breadth-first", "no-such-strategy"])

    def test_colliding_labels_are_refused_before_any_crawl(self, thai_dataset):
        crawled = []
        config = SessionConfig(max_pages=5, on_fetch=crawled.append)
        with pytest.raises(ConfigError, match=r"limited-distance\(N=2\), soft-focused"):
            run_strategies(
                thai_dataset,
                [
                    "soft-focused",
                    "soft-focused",
                    ("limited-distance", {"n": 2}),
                    ("limited-distance", {"n": 2}),
                ],
                config,
            )
        assert crawled == []


class TestFaultSweepDifferential:
    def test_workers_match_serial(self, thai_dataset):
        serial = fault_sweep(thai_dataset, rates=(0.0, 0.2), max_pages=150)
        parallel = fault_sweep(
            thai_dataset, rates=(0.0, 0.2), max_pages=150, workers=2
        )
        assert json.dumps(
            [point.to_dict() for point in serial], sort_keys=True
        ) == json.dumps([point.to_dict() for point in parallel], sort_keys=True)


class TestSpecs:
    def test_dataset_spec_rebuilds_the_same_dataset(self, thai_dataset):
        spec = DatasetSpec.from_dataset(thai_dataset, use_cache=False)
        rebuilt = spec.build()
        assert rebuilt.name == thai_dataset.name
        assert rebuilt.seed_urls == thai_dataset.seed_urls
        assert len(rebuilt.crawl_log) == len(thai_dataset.crawl_log)
        assert rebuilt.relevant_urls() == thai_dataset.relevant_urls()

    def test_specs_are_hashable(self, thai_dataset):
        spec = RunSpec(
            dataset=DatasetSpec.from_dataset(thai_dataset),
            strategy="breadth-first",
        )
        assert spec in {spec}

    def test_parallel_spec_matches_workers(self, thai_dataset):
        spec = RunSpec.for_parallel(
            dataset=thai_dataset,
            strategy="hard-focused",
            config=SessionConfig(parallel=ParallelConfig(partitions=2), max_pages=200),
        )
        serial = SweepExecutor(0).run([spec])
        parallel = SweepExecutor(2).run([spec])
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        result = serial[0]
        assert result.pages_crawled == sum(result.per_crawler_pages)

    def test_parallel_spec_guards_partition_plan(self, thai_dataset):
        spec = RunSpec.for_parallel(
            dataset=thai_dataset,
            strategy="breadth-first",
            config=SessionConfig(parallel=ParallelConfig(partitions=2)),
        )
        assert spec.seed_owners
        tampered = dataclasses.replace(
            spec,
            seed_owners=tuple(
                (url, 1 - bucket) for url, bucket in spec.seed_owners
            ),
        )
        with pytest.raises(ConfigError, match="partition"):
            execute_run(tampered)

    def test_payload_roundtrip(self, thai_dataset):
        spec = RunSpec(
            dataset=DatasetSpec.from_dataset(thai_dataset),
            strategy="breadth-first",
            config=SessionConfig(max_pages=100),
        )
        payload = execute_run(spec)
        result = result_from_payload(payload)
        assert result.strategy == "breadth-first"
        assert result.pages_crawled == 100
        # The payload is what crosses the process boundary: plain JSON.
        json.dumps(payload)


def _value_spec() -> RunSpec:
    """A spec with every value field of its config set off the default."""
    return RunSpec(
        dataset=DatasetSpec(store_path="web.lswc"),
        strategy="limited-distance",
        params=(("n", 2),),
        classifier_mode="meta",
        config=SessionConfig(
            max_pages=300,
            sample_interval=25,
            extract_from_body=True,
            timing=TimingModel(latency_s=0.2, connections=8),
            concurrency=4,
            faults=FaultModel(
                FaultProfile(transient_error_rate=0.1),
                per_host={"b.co.th": FaultProfile(timeout_rate=0.5)},
                outages=(HostOutage("c.co.th", 10, 20),),
                seed=3,
            ),
            resilience=ResilienceConfig(retry=RetryPolicy(), breaker=BreakerPolicy()),
            adversary=AdversaryModel(AdversaryProfile(trap_hosts=("t.co.th",)), seed=9),
            defenses=DefenseConfig.standard(),
            frontier=HostQueues(),
            record_fault_journal=True,
            record_adversary_journal=True,
        ),
    )


class TestRunSpecCarriesAConfig:
    """A ``RunSpec`` is ``(what, SessionConfig)``: the config crosses to
    workers as a value, and a field naming a live object cannot."""

    def test_value_spec_is_hashable_picklable_and_equal(self):
        spec = _value_spec()
        assert spec == _value_spec()
        assert hash(spec) == hash(_value_spec())
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert spec in {_value_spec()}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("on_fetch", print),
            ("instrumentation", Instrumentation()),
            ("hooks", (EngineHook(),)),
            ("checkpoint_every", 10),
            ("checkpoint_path", Path("run.ckpt")),
            ("resume_from", "run.ckpt"),
        ],
    )
    def test_live_fields_are_refused_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"SessionConfig.{field}="):
            RunSpec(
                dataset=DatasetSpec(store_path="web.lswc"),
                strategy="breadth-first",
                config=SessionConfig(**{field: value}),
            )


class TestStoreSpecs:
    """``DatasetSpec.from_store``: workers share one on-disk dataset."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory):
        from repro.experiments.datasets import build_dataset_store
        from repro.graphgen.profiles import profile_by_name

        path = tmp_path_factory.mktemp("exec-store") / "thai.lswc"
        build_dataset_store(
            profile_by_name("thai").scaled(0.02), path, capture_kind="none"
        )
        return path

    def test_store_spec_round_trips(self, store_path):
        spec = DatasetSpec.from_store(store_path)
        assert spec.store_path == str(store_path)
        dataset = spec.build()
        try:
            assert dataset.name.startswith("thai")
            assert dataset.capture_kind == "none"
            assert len(dataset.crawl_log) > 0
            assert len(dataset.seed_urls) > 0
        finally:
            dataset.crawl_log.close()

    def test_store_spec_is_hashable_and_picklable(self, store_path):
        import pickle

        spec = DatasetSpec.from_store(store_path)
        assert spec in {spec}
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_spec_without_profile_or_store_is_an_error(self):
        with pytest.raises(ConfigError, match="profile= or a store_path="):
            DatasetSpec().build()

    def test_store_workers_match_serial(self, store_path):
        specs = [
            RunSpec(
                dataset=DatasetSpec.from_store(store_path),
                strategy=name,
                config=SessionConfig(max_pages=120, sample_interval=40),
            )
            for name in ("breadth-first", "soft-focused")
        ]
        serial = SweepExecutor(0).run(specs)
        parallel = SweepExecutor(2).run(specs)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
