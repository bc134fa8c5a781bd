"""Unit tests for the figure producers.

These run the real experiments on the small session dataset and assert
structure plus the cheap shape properties; the full shape criteria are
asserted at benchmark scale in benchmarks/.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.figures import figure3, figure5, figure6, figure7


@pytest.fixture(scope="module")
def fig3(thai_dataset):
    return figure3(thai_dataset)


@pytest.fixture(scope="module")
def fig6(thai_dataset):
    return figure6(thai_dataset, ns=(1, 2, 3))


@pytest.fixture(scope="module")
def fig7(thai_dataset):
    return figure7(thai_dataset, ns=(1, 2, 3))


class TestFigure3:
    def test_strategy_labels(self, fig3):
        assert list(fig3.results) == ["breadth-first", "hard-focused", "soft-focused"]

    def test_panels(self, fig3):
        assert fig3.panels == ("harvest_rate", "coverage")

    def test_soft_reaches_full_coverage(self, fig3):
        assert fig3.results["soft-focused"].final_coverage == pytest.approx(1.0)

    def test_hard_stops_short(self, fig3):
        assert fig3.results["hard-focused"].final_coverage < 0.95

    def test_focused_beat_breadth_first_early(self, fig3, thai_dataset):
        early = len(thai_dataset.crawl_log) // 5
        bfs = fig3.results["breadth-first"].series.harvest_at(early)
        hard = fig3.results["hard-focused"].series.harvest_at(early)
        soft = fig3.results["soft-focused"].series.harvest_at(early)
        assert hard > bfs
        assert soft > bfs

    def test_to_dict_serialisable(self, fig3):
        import json

        payload = json.dumps(fig3.to_dict())
        assert "breadth-first" in payload


class TestFigure5:
    def test_queue_panel(self, thai_dataset):
        fig = figure5(thai_dataset)
        assert fig.panels == ("queue_size",)
        soft_queue = fig.results["soft-focused"].summary.max_queue_size
        hard_queue = fig.results["hard-focused"].summary.max_queue_size
        assert soft_queue > 2 * hard_queue


class TestFigure6:
    def test_queue_size_increases_with_n(self, fig6):
        queues = [result.summary.max_queue_size for result in fig6.results.values()]
        assert queues == sorted(queues)
        assert queues[0] < queues[-1]

    def test_coverage_increases_with_n(self, fig6):
        coverages = [result.final_coverage for result in fig6.results.values()]
        assert coverages == sorted(coverages)

    def test_harvest_decreases_with_n(self, fig6):
        harvests = [result.final_harvest_rate for result in fig6.results.values()]
        assert harvests == sorted(harvests, reverse=True)

    def test_labels_carry_n(self, fig6):
        assert all(f"N={n}" in label for n, label in zip((1, 2, 3), fig6.results))


class TestFigure7:
    def test_early_harvest_invariant_in_n(self, fig7, thai_dataset):
        """The paper's headline for Figure 7: prioritisation makes the
        harvest rate independent of N."""
        early = len(thai_dataset.crawl_log) // 5
        rates = [result.series.harvest_at(early) for result in fig7.results.values()]
        assert max(rates) - min(rates) < 0.06

    def test_queue_still_controlled_by_n(self, fig7):
        queues = [result.summary.max_queue_size for result in fig7.results.values()]
        assert queues[0] < queues[-1]

    def test_coverage_not_worse_than_non_prioritized(self, fig6, fig7):
        for (label6, result6), (label7, result7) in zip(
            fig6.results.items(), fig7.results.items()
        ):
            assert result7.final_coverage >= result6.final_coverage - 0.02


class TestSpecPath:
    """Figures are ``RunSpec`` grids: any worker count, same curves."""

    def test_workers_do_not_move_a_curve(self, thai_dataset, fig6, fig7):
        assert figure5(thai_dataset, workers=2).to_dict() == figure5(thai_dataset).to_dict()
        assert figure6(thai_dataset, ns=(1, 2, 3), workers=2).to_dict() == fig6.to_dict()
        assert figure7(thai_dataset, ns=(1, 2, 3), workers=2).to_dict() == fig7.to_dict()

    def test_colliding_labels_are_refused(self, thai_dataset):
        with pytest.raises(ConfigError, match=r"repeated: .*limited-distance\(N=2\)"):
            figure6(thai_dataset, ns=(2, 2))
