"""Unit tests for the timing model (transfer delays + politeness)."""

import pytest

from repro.core.timing import TimingModel, VirtualClock
from repro.errors import ConfigError


def model(**kwargs) -> VirtualClock:
    defaults = dict(
        bandwidth_bytes_per_s=1000.0,
        latency_s=0.1,
        politeness_interval_s=1.0,
        connections=1,
    )
    defaults.update(kwargs)
    return TimingModel(**defaults).clock()


class TestSingleConnection:
    def test_first_fetch_time(self):
        timing = model()
        # 0.1 latency + 500/1000 transfer = 0.6s
        assert timing.observe_fetch("http://a.example/x", 500) == pytest.approx(0.6)

    def test_sequential_fetches_same_site_respect_politeness(self):
        timing = model()
        timing.observe_fetch("http://a.example/1", 0)  # completes at 0.1
        second = timing.observe_fetch("http://a.example/2", 0)
        # Site available at 0.0 + 1.0 politeness; start 1.0; complete 1.1.
        assert second == pytest.approx(1.1)

    def test_different_sites_not_throttled_by_each_other(self):
        timing = model()
        timing.observe_fetch("http://a.example/1", 0)
        second = timing.observe_fetch("http://b.example/1", 0)
        # Single connection frees at 0.1; b.example never seen before.
        assert second == pytest.approx(0.2)

    def test_clock_monotone(self):
        timing = model()
        times = [
            timing.observe_fetch(f"http://h{index % 3}.example/p", 100)
            for index in range(20)
        ]
        assert times == sorted(times)
        assert timing.now == times[-1]


class TestMultipleConnections:
    def test_parallel_slots_overlap(self):
        serial = model(connections=1)
        parallel = model(connections=4)
        urls = [f"http://h{index}.example/" for index in range(8)]
        serial_done = max(serial.observe_fetch(url, 1000) for url in urls)
        parallel_done = max(parallel.observe_fetch(url, 1000) for url in urls)
        assert parallel_done < serial_done

    def test_politeness_still_binds_within_site(self):
        timing = model(connections=8)
        first = timing.observe_fetch("http://a.example/1", 0)
        second = timing.observe_fetch("http://a.example/2", 0)
        assert second - first >= 0.9  # ~politeness interval apart


class TestValidation:
    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            TimingModel(bandwidth_bytes_per_s=0)

    def test_rejects_negative_latency(self):
        with pytest.raises(ConfigError):
            TimingModel(latency_s=-1)

    def test_rejects_zero_connections(self):
        with pytest.raises(ConfigError):
            TimingModel(connections=0)


class TestIntegrationWithSimulator:
    def test_sim_time_series_monotone(self, tiny_web):
        from repro.charset.languages import Language
        from repro.core.classifier import Classifier
        from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
        from repro.core.strategies import BreadthFirstStrategy
        from conftest import SEED

        result = CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
            ),
            SessionConfig(sample_interval=1, timing=TimingModel()),
        ).run()
        assert len(result.series.sim_time) == result.pages_crawled
        assert result.series.sim_time == sorted(result.series.sim_time)
        assert result.summary.simulated_seconds > 0
