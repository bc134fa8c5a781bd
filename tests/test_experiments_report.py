"""Unit tests for the plain-text report renderers."""

from repro.core.metrics import MetricSeries
from repro.core.session import CrawlResult
from repro.core.metrics import CrawlSummary
from repro.experiments.figures import FigureResult
from repro.experiments.report import (
    render_ascii_chart,
    render_figure,
    render_table,
    series_checkpoints,
)


def fake_result(name: str, harvest: list[float]) -> CrawlResult:
    count = len(harvest)
    series = MetricSeries(
        name=name,
        pages=[(index + 1) * 10 for index in range(count)],
        harvest_rate=harvest,
        coverage=[0.1 * (index + 1) for index in range(count)],
        queue_size=[5] * count,
    )
    summary = CrawlSummary(
        strategy=name,
        pages_crawled=count * 10,
        relevant_crawled=int(harvest[-1] * count * 10),
        covered_relevant=1,
        total_relevant=10,
        max_queue_size=5,
    )
    return CrawlResult(
        strategy=name,
        series=series,
        summary=summary,
        wall_seconds=0.0,
        pages_crawled=count * 10,
        frontier_peak=5,
    )


def fake_figure() -> FigureResult:
    return FigureResult(
        figure="9",
        title="Fake",
        dataset="tiny",
        panels=("harvest_rate", "coverage"),
        results={
            "alpha": fake_result("alpha", [0.5, 0.4, 0.3]),
            "beta": fake_result("beta", [0.2, 0.2, 0.2]),
        },
    )


class TestRenderTable:
    def test_alignment_and_header(self):
        text = render_table([{"a": 1, "bb": "xy"}, {"a": 22, "bb": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("a")
        assert "--" in lines[2]
        assert len(lines) == 5

    def test_empty_rows(self):
        assert "(empty)" in render_table([], title="T")

    def test_missing_keys_blank(self):
        text = render_table([{"a": 1, "b": 2}, {"a": 3}])
        assert "3" in text


class TestSeriesCheckpoints:
    def test_values_at_fractions(self):
        series = fake_result("x", [0.5, 0.4, 0.3]).series
        points = series_checkpoints(series, "harvest_rate", fractions=(0.5, 1.0))
        assert points == {"50%": 50.0, "100%": 30.0}  # percent scale

    def test_queue_size_not_percent_scaled(self):
        series = fake_result("x", [0.5]).series
        points = series_checkpoints(series, "queue_size", fractions=(1.0,))
        assert points == {"100%": 5}

    def test_empty_series(self):
        assert series_checkpoints(MetricSeries(name="e"), "harvest_rate") == {}


class TestRenderFigure:
    def test_contains_title_and_strategies(self):
        text = render_figure(fake_figure())
        assert "Figure 9" in text
        assert "alpha" in text and "beta" in text
        assert "Harvest Rate [%]" in text
        assert "Coverage [%]" in text


class TestAsciiChart:
    def test_draws_grid_with_markers(self):
        chart = render_ascii_chart(fake_figure(), "harvest_rate", width=40, height=8)
        assert "o" in chart and "x" in chart
        assert "alpha" in chart and "beta" in chart

    def test_empty_figure(self):
        figure = FigureResult(figure="0", title="t", dataset="d", panels=("harvest_rate",))
        assert "(no data)" in render_ascii_chart(figure, "harvest_rate")
