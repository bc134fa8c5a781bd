"""The strategy tournament: profile, ranking math, determinism, CLI.

Kept tiny (two strategies, one scale, one seed, capped pages) — the
full-zoo run and its context-pays gate live in
``benchmarks/bench_strategy_tournament.py``; here the point is the
payload's *shape*: the cued profile, the ranking arithmetic, the
serial/parallel digest equality, and the module CLI.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.tournament import (
    CUE_ANCHOR_PROBABILITY,
    CUE_AROUND_PROBABILITY,
    FULL_ZOO,
    _main,
    cued_thai_profile,
    ranking_summary,
    tournament_sweep,
)
from repro.core.strategies import available_strategies
from repro.graphgen.profiles import thai_profile

PUBLISHED = Path(__file__).resolve().parents[1] / "benchmarks/results/BENCH_strategy_tournament.json"

MAX_PAGES = 120
SMALL = dict(
    strategies=("breadth-first", "infospiders"),
    scales=(0.02,),
    seeds=(7,),
    max_pages=MAX_PAGES,
)


@pytest.fixture(scope="module")
def sweep():
    return tournament_sweep(**SMALL)


class TestCuedProfile:
    def test_cue_probabilities_enabled(self):
        profile = cued_thai_profile(0.02)
        assert profile.anchor_cue_probability == CUE_ANCHOR_PROBABILITY
        assert profile.around_cue_probability == CUE_AROUND_PROBABILITY
        assert profile.name.endswith("-cued")

    def test_fingerprint_differs_from_plain_profile(self):
        # Cue knobs change the cache key: a cued dataset never shadows
        # (or is shadowed by) the plain one in the disk cache.
        plain = thai_profile().scaled(0.02)
        assert cued_thai_profile(0.02).fingerprint() != plain.fingerprint()

    def test_seed_rerolls_the_universe(self):
        assert cued_thai_profile(0.02, 7).seed == 7
        assert cued_thai_profile(0.02, 7).fingerprint() != cued_thai_profile(0.02).fingerprint()

    def test_full_zoo_names_are_all_registered(self):
        registered = set(available_strategies())
        assert set(FULL_ZOO) == registered


class TestSweepPayload:
    def test_rows_cover_the_grid(self, sweep):
        cells = [(row["strategy"], row["scale"], row["seed"]) for row in sweep["rows"]]
        assert cells == [("breadth-first", 0.02, 7), ("infospiders", 0.02, 7)]

    def test_rows_carry_metrics_and_budget(self, sweep):
        for row in sweep["rows"]:
            assert row["pages"] <= MAX_PAGES
            assert 0.0 <= row["harvest_rate"] <= 1.0
            assert 0.0 <= row["coverage"] <= 1.0
            assert row["dataset_pages"] > 0

    def test_summary_ranks_every_strategy_once(self, sweep):
        assert [entry["rank"] for entry in sweep["summary"]] == [1, 2]
        assert {entry["strategy"] for entry in sweep["summary"]} == set(SMALL["strategies"])

    def test_payload_digest_is_stable(self, sweep):
        assert tournament_sweep(**SMALL)["digest_sha256"] == sweep["digest_sha256"]

    def test_workers_match_serial_digest(self, sweep):
        parallel = tournament_sweep(workers=2, **SMALL)
        assert parallel["digest_sha256"] == sweep["digest_sha256"]


class TestPublishedRanking:
    def test_default_sweep_reproduces_the_published_digest(self):
        """Serial == workers only says the sweep is self-consistent; this
        says the full zoo still ranks as published — a context strategy
        that scores one link differently moves it."""
        published = json.loads(PUBLISHED.read_text())["data"]["tournament"]
        sweep = tournament_sweep()
        assert sweep["summary"] == published["summary"]
        assert sweep["digest_sha256"] == published["digest_sha256"]


class TestRankingSummary:
    @staticmethod
    def _row(strategy, harvest, coverage, seed=7):
        return {
            "strategy": strategy,
            "seed": seed,
            "harvest_rate": harvest,
            "coverage": coverage,
        }

    def test_sorted_by_harvest_then_coverage(self):
        rows = [
            self._row("low", 0.2, 0.9),
            self._row("high", 0.4, 0.1),
            self._row("tied", 0.2, 0.95),
        ]
        summary = ranking_summary(rows)
        assert [entry["strategy"] for entry in summary] == ["high", "tied", "low"]
        assert [entry["rank"] for entry in summary] == [1, 2, 3]

    def test_means_average_over_cells(self):
        rows = [
            self._row("s", 0.2, 0.4, seed=1),
            self._row("s", 0.4, 0.6, seed=2),
        ]
        (entry,) = ranking_summary(rows)
        assert entry["mean_harvest_rate"] == pytest.approx(0.3)
        assert entry["mean_coverage"] == pytest.approx(0.5)
        assert entry["runs"] == 2

    def test_exact_ties_break_by_name(self):
        rows = [self._row("zeta", 0.3, 0.5), self._row("alpha", 0.3, 0.5)]
        assert [entry["strategy"] for entry in ranking_summary(rows)] == ["alpha", "zeta"]


class TestCli:
    def test_writes_payload_and_checks_determinism(self, tmp_path, capsys):
        output = tmp_path / "tournament.json"
        code = _main(
            [
                "--strategies",
                "breadth-first,infospiders",
                "--scales",
                "0.02",
                "--seeds",
                "7",
                "--max-pages",
                str(MAX_PAGES),
                "--workers",
                "2",
                "--check-determinism",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        assert "determinism check ok" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["experiment"] == "strategy-tournament"
        assert payload["summary"]
        assert payload["digest_sha256"]

    def test_rejects_empty_strategy_list(self):
        with pytest.raises(SystemExit):
            _main(["--strategies", ","])

    def test_rejects_malformed_scales(self):
        with pytest.raises(SystemExit):
            _main(["--scales", "big"])
