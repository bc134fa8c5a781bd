"""Checks of the ledger itself: the contract file, the layer table, a smoke run.

Run explicitly (it is outside tier-1's ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SECONDS, MIN_PASSES, MIN_STEP_OPS, WORKLOADS, pass_count  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: Layer metrics that predict "no movement at all" rather than naming a target.
_NO_TARGET_LAYERS = {"simulation", "trace"}


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def layers() -> list[dict]:
    return json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]


def test_benchmark_json_meets_the_contract(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert bench["paths"] == ["benchmarks/ledger"]
    assert bench["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert bench["run_seconds"] == DEFAULT_SECONDS and 1 <= bench["run_seconds"] <= 60
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [
        entry["name"]
        for section in ("workloads", "end_to_end", "per_layer")
        for entry in bench[section]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_workloads_match_the_harness(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for workload in bench["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]]["why"]


def test_pass_count_is_a_constant_of_the_workload():
    for name, workload in WORKLOADS.items():
        assert pass_count(name, False, DEFAULT_SECONDS) == workload["full"]["passes"] >= MIN_PASSES
        assert pass_count(name, False, 2 * DEFAULT_SECONDS) == 2 * workload["full"]["passes"]
        assert pass_count(name, False, 1) == MIN_PASSES
        assert pass_count(name, True, DEFAULT_SECONDS) == 1


def test_every_layer_metric_says_what_it_should_move(bench, layers):
    described = [name for group in layers for name in group["metrics"]]
    assert described == [metric["name"] for metric in bench["per_layer"]]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for group in layers:
        assert group["layer"] and all(group["metrics"].values()), group
        if group["layer"] in _NO_TARGET_LAYERS:
            assert group["moves"] == []
            continue
        assert group["moves"], f"{group['layer']} names no end-to-end metric and workload"
        for metric, workload in group["moves"]:
            assert metric in end_to_end and workload in WORKLOADS, group["layer"]


def _smoke(*extra: str) -> tuple[list[dict], list[str]]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", *extra],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    lines = done.stdout.splitlines()
    assert done.returncode == 0, done.stdout
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == len(WORKLOADS)
    return results, lines


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_reports_every_declared_metric(bench, trace, section):
    results, lines = _smoke("--trace", trace)
    declared = {m["name"]: m["unit"] for m in bench[section]}
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
    if section == "end_to_end":
        # Every reported percentile has at least ten samples beyond it.
        beyond = [int(line.split()[2]) for line in lines if "run.p95_samples_beyond" in line]
        steps = [int(line.split()[2]) for line in lines if "run.step_ops" in line]
        assert len(beyond) == len(WORKLOADS) and min(beyond) >= 10
        assert min(steps) >= MIN_STEP_OPS
        for result in results:
            assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        for result in results:
            assert result["metrics"]["trace.coverage_ratio"]["value"] >= 0.9
    assert not list(ROOT.glob(".ledger_tmp-*"))
