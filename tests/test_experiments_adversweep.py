"""The adversarial survival sweep: grid shape, math, determinism, CLI.

Kept tiny (one small dataset, two scenarios, one seed, capped pages) —
the full matrix and its recovery gates live in
``benchmarks/bench_adversarial_survival.py``; here the point is the
payload's *shape*: the cell grid, the recovery arithmetic, the
serial/parallel digest equality, and the module CLI.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.experiments.adversweep import (
    DEFAULT_SEEDS,
    DEFAULT_STRATEGIES,
    SCENARIOS,
    _main,
    adversarial_sweep,
    recovery_summary,
)
from repro.experiments.datasets import build_dataset
from repro.graphgen.profiles import thai_profile

MAX_PAGES = 120


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(thai_profile().scaled(0.02))


@pytest.fixture(scope="module")
def sweep(small_dataset):
    return adversarial_sweep(
        small_dataset,
        strategies=("breadth-first",),
        scenarios=("clean", "traps"),
        seeds=(7,),
        max_pages=MAX_PAGES,
    )


class TestGridShape:
    def test_cells_cover_both_defense_arms(self, sweep):
        cells = [(r["scenario"], r["seed"], r["defended"]) for r in sweep["rows"]]
        assert cells == [
            ("clean", 7, False),
            ("clean", 7, True),
            ("traps", 7, False),
            ("traps", 7, True),
        ]

    def test_rows_carry_adversary_accounting(self, sweep):
        trap_off = next(
            r for r in sweep["rows"] if r["scenario"] == "traps" and not r["defended"]
        )
        assert trap_off["injected"]["trap_pages"] > 0
        assert trap_off["defense_stats"] == {}
        trap_on = next(
            r for r in sweep["rows"] if r["scenario"] == "traps" and r["defended"]
        )
        assert trap_on["defense_stats"]  # the standard preset keeps stats

    def test_clean_scenario_runs_without_adversary(self, sweep):
        clean_off = next(
            r for r in sweep["rows"] if r["scenario"] == "clean" and not r["defended"]
        )
        assert clean_off["injected"] == {}

    def test_payload_digest_is_stable(self, sweep, small_dataset):
        again = adversarial_sweep(
            small_dataset,
            strategies=("breadth-first",),
            scenarios=("clean", "traps"),
            seeds=(7,),
            max_pages=MAX_PAGES,
        )
        assert again["digest_sha256"] == sweep["digest_sha256"]

    def test_workers_match_serial_digest(self, sweep, small_dataset):
        parallel = adversarial_sweep(
            small_dataset,
            strategies=("breadth-first",),
            scenarios=("clean", "traps"),
            seeds=(7,),
            max_pages=MAX_PAGES,
            workers=2,
        )
        assert parallel["digest_sha256"] == sweep["digest_sha256"]

    def test_unknown_scenario_is_loud(self, small_dataset):
        with pytest.raises(ConfigError, match="unknown adversweep scenarios"):
            adversarial_sweep(small_dataset, scenarios=("clean", "nope"))

    def test_default_registry_sanity(self):
        assert "clean" in SCENARIOS and "combined" in SCENARIOS
        assert SCENARIOS["clean"].is_empty
        assert all(not SCENARIOS[name].is_empty for name in SCENARIOS if name != "clean")
        assert len(DEFAULT_STRATEGIES) == 3
        assert len(DEFAULT_SEEDS) >= 2


class TestRecoverySummary:
    @staticmethod
    def _row(scenario, defended, coverage, seed=7, strategy="breadth-first"):
        return {
            "strategy": strategy,
            "scenario": scenario,
            "seed": seed,
            "defended": defended,
            "coverage": coverage,
        }

    def test_ratio_arithmetic(self):
        rows = [
            self._row("clean", False, 0.8),
            self._row("traps", False, 0.4),
            self._row("traps", True, 0.7),
        ]
        (summary,) = recovery_summary(rows)
        assert summary["gap"] == pytest.approx(0.4)
        assert summary["recovered"] == pytest.approx(0.3)
        assert summary["recovery_ratio"] == pytest.approx(0.75)

    def test_seeds_average_before_the_ratio(self):
        rows = [
            self._row("clean", False, 0.8),
            self._row("traps", False, 0.3, seed=1),
            self._row("traps", False, 0.5, seed=2),
            self._row("traps", True, 0.6, seed=1),
            self._row("traps", True, 0.8, seed=2),
        ]
        (summary,) = recovery_summary(rows)
        assert summary["off_coverage"] == pytest.approx(0.4)
        assert summary["on_coverage"] == pytest.approx(0.7)
        assert summary["recovery_ratio"] == pytest.approx(0.75)

    def test_zero_gap_yields_null_ratio(self):
        rows = [
            self._row("clean", False, 0.8),
            self._row("mislabel", False, 0.8),
            self._row("mislabel", True, 0.8),
        ]
        (summary,) = recovery_summary(rows)
        assert summary["recovery_ratio"] is None

    def test_partial_sweep_skips_unpaired_cells(self):
        rows = [
            self._row("clean", False, 0.8),
            self._row("traps", False, 0.4),  # no defended sibling
        ]
        assert recovery_summary(rows) == []


class TestCli:
    def test_writes_payload_and_checks_determinism(self, tmp_path, capsys):
        output = tmp_path / "adversweep.json"
        code = _main(
            [
                "--scale",
                "0.02",
                "--strategies",
                "breadth-first",
                "--scenarios",
                "clean,traps",
                "--seeds",
                "7",
                "--max-pages",
                str(MAX_PAGES),
                "--check-determinism",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "determinism check ok" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["experiment"] == "adversarial-survival"
        assert payload["summary"]
        assert payload["digest_sha256"]

    def test_rejects_unknown_scenario_names(self):
        with pytest.raises(SystemExit):
            _main(["--scenarios", "clean,bogus"])
