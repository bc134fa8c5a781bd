"""Unit tests for the observability subsystem (repro.obs).

Covers the typed event bus, the metrics registry and its profile
rendering, the JSONL trace round-trip, the Instrumentation hub, and —
the load-bearing guarantees — that an instrumented simulation crawls
exactly the same pages as a plain one while emitting exactly one span
per fetch.
"""

import math

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.spilling import SpillConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.obs import (
    CounterEvent,
    EventBus,
    GaugeEvent,
    Instrumentation,
    JsonlTraceWriter,
    MetricsRegistry,
    SpanEvent,
    TimerStat,
    event_to_dict,
    iter_trace,
    read_trace,
)
from repro.obs.instrument import active

from conftest import SEED


def crawl(web, instrumentation=None, strategy=None, classifier=None):
    return CrawlSession(
        CrawlRequest(
            strategy=strategy or BreadthFirstStrategy(),
            web=web,
            classifier=classifier or Classifier(Language.THAI),
            seeds=(SEED,),
        ),
        SessionConfig(sample_interval=2, instrumentation=instrumentation),
    ).run()


class TestEvents:
    def test_span_key_is_component_dot_name(self):
        span = SpanEvent(component="visitor", name="fetch", start_s=0.0, duration_s=0.1)
        assert span.key == "visitor.fetch"
        assert span.attrs == {}

    def test_bus_fan_out_in_subscription_order(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(("first", event)))
        bus.subscribe(lambda event: seen.append(("second", event)))
        event = CounterEvent(name="pages")
        bus.publish(event)
        assert seen == [("first", event), ("second", event)]

    def test_unsubscribe_is_idempotent(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(seen.append)
        assert len(bus) == 1 and bus
        unsubscribe()
        unsubscribe()  # second call is a no-op
        bus.publish(GaugeEvent(name="queue", value=1.0))
        assert not seen
        assert not bus


class TestRegistry:
    def test_timer_stat_running_statistics(self):
        stat = TimerStat()
        assert stat.mean_s == 0.0
        for seconds in (0.2, 0.1, 0.3):
            stat.observe(seconds)
        assert stat.count == 3
        assert stat.total_s == pytest.approx(0.6)
        assert stat.mean_s == pytest.approx(0.2)
        assert stat.min_s == pytest.approx(0.1)
        assert stat.max_s == pytest.approx(0.3)

    def test_timer_stat_to_dict_hides_inf_before_observations(self):
        assert math.isfinite(TimerStat().to_dict()["min_s"])

    def test_registry_aggregates_counters_and_gauges(self):
        registry = MetricsRegistry()
        assert not registry
        registry.add("pages")
        registry.add("pages", 4)
        registry.set_gauge("queue", 10)
        registry.set_gauge("queue", 7)  # last write wins
        assert registry.counter("pages") == 5
        assert registry.gauges["queue"] == 7
        assert registry

    def test_profile_rows_sorted_by_total_time(self):
        registry = MetricsRegistry()
        registry.observe("fast.op", 0.001)
        registry.observe("slow.op", 0.1)
        rows = registry.profile_rows()
        assert [row["component"] for row in rows] == ["slow.op", "fast.op"]
        assert rows[0]["share"].endswith("%")

    def test_render_profile_handles_empty_registry(self):
        text = MetricsRegistry().render_profile()
        assert "no timers recorded" in text

    def test_render_profile_includes_counters_footer(self):
        registry = MetricsRegistry()
        registry.observe("visitor.fetch", 0.01)
        registry.add("visitor.bytes", 2048)
        text = registry.render_profile()
        assert "visitor.fetch" in text
        assert "visitor.bytes=2048" in text


class TestTrace:
    def test_event_to_dict_flattens_span_attrs(self):
        span = SpanEvent(
            component="simulator", name="fetch", start_s=1.0, duration_s=0.5,
            attrs={"url": "http://a/", "step": 3},
        )
        record = event_to_dict(span)
        assert record["type"] == "span"
        assert record["url"] == "http://a/" and record["step"] == 3

    def test_event_to_dict_rejects_non_events(self):
        with pytest.raises(TypeError):
            event_to_dict("not an event")

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceWriter(path) as writer:
            writer.write({"type": "span", "step": 1})
            writer.write({"type": "span", "step": 2})
        assert writer.records_written == 2
        assert read_trace(path) == [{"type": "span", "step": 1}, {"type": "span", "step": 2}]
        assert list(iter_trace(path)) == read_trace(path)

    def test_writer_filters_non_span_events_as_subscriber(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = EventBus()
        with JsonlTraceWriter(path) as writer:
            bus.subscribe(writer)
            bus.publish(CounterEvent(name="pages"))
            bus.publish(SpanEvent(component="c", name="op", start_s=0.0, duration_s=1.0))
            bus.publish(GaugeEvent(name="queue", value=3.0))
        records = read_trace(path)
        assert len(records) == 1 and records[0]["type"] == "span"

    def test_write_after_close_raises(self, tmp_path):
        writer = JsonlTraceWriter(tmp_path / "trace.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.write({"type": "span"})


class TestInstrumentation:
    def test_active_normalises_none_and_disabled(self):
        assert active(None) is None
        assert active(Instrumentation(enabled=False)) is None
        hub = Instrumentation()
        assert active(hub) is hub

    def test_span_aggregates_and_publishes(self):
        hub = Instrumentation()
        seen = []
        hub.bus.subscribe(seen.append)
        hub.span("simulator", "fetch", start_s=0.0, duration_s=0.25, step=1)
        assert hub.registry.timer("simulator.fetch").count == 1
        assert len(seen) == 1 and seen[0].attrs["step"] == 1

    def test_timer_context_manager_records(self):
        hub = Instrumentation()
        with hub.timer("frontier.pop"):
            pass
        stat = hub.registry.timer("frontier.pop")
        assert stat.count == 1 and stat.total_s >= 0.0

    def test_owns_and_closes_trace_writer(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Instrumentation(trace_path=path) as hub:
            hub.span("c", "op", start_s=0.0, duration_s=0.1)
        assert hub.trace.records_written == 1
        assert len(read_trace(path)) == 1


class TestInstrumentedSimulation:
    def test_disabled_hub_records_nothing(self, tiny_web):
        hub = Instrumentation(enabled=False)
        crawl(tiny_web, instrumentation=hub)
        assert not hub.registry

    def test_instrumented_run_equals_plain_run(self, tiny_web):
        plain = crawl(tiny_web)
        instrumented = crawl(tiny_web, instrumentation=Instrumentation())
        assert instrumented.pages_crawled == plain.pages_crawled
        assert instrumented.to_dict() == plain.to_dict()
        assert instrumented.summary == plain.summary

    def test_per_component_timers_cover_the_loop(self, tiny_web):
        hub = Instrumentation()
        result = crawl(tiny_web, instrumentation=hub)
        timers = hub.registry.timers
        for key in (
            "simulator.fetch",
            "visitor.fetch",
            "classifier.judge",
            "frontier.pop",
            "frontier.push",
            "strategy.expand",
        ):
            assert timers[key].count > 0, key
        assert timers["visitor.fetch"].count == result.pages_crawled
        assert hub.registry.counter("simulator.pages") == result.pages_crawled
        assert hub.registry.gauges["frontier.peak_size"] == result.summary.max_queue_size

    def test_one_span_per_fetch_in_trace(self, tiny_web, tmp_path):
        path = tmp_path / "crawl.jsonl"
        with Instrumentation(trace_path=path) as hub:
            result = crawl(tiny_web, instrumentation=hub)
        records = read_trace(path)
        assert len(records) == result.pages_crawled
        assert all(r["type"] == "span" and r["component"] == "simulator" for r in records)
        assert [r["step"] for r in records] == list(range(1, result.pages_crawled + 1))
        urls = {r["url"] for r in records}
        assert SEED in urls

    def test_classifier_unbound_after_run(self, tiny_web):
        classifier = Classifier(Language.THAI)
        hub = Instrumentation()
        crawl(tiny_web, hub, classifier=classifier)
        judged = hub.registry.timer("classifier.judge").count
        # A later, uninstrumented judge must not keep feeding the hub.
        classifier.judge(tiny_web.fetch(SEED))
        assert hub.registry.timer("classifier.judge").count == judged

    def test_spilling_frontier_reports_spill_counters(self, thai_dataset):
        hub = Instrumentation()
        CrawlSession(
            CrawlRequest(dataset=thai_dataset, strategy=SimpleStrategy(mode="soft")),
            SessionConfig(
                frontier=SpillConfig(memory_limit=50),
                sample_interval=500,
                instrumentation=hub,
            ),
        ).run()
        assert hub.registry.counter("frontier.spilled") > 0
        assert hub.registry.timer("frontier.spill").count > 0


class TestEventBatching:
    """The batched dispatch path: buffering must never lose or reorder.

    Batching exists purely to amortise per-event bus dispatch in the
    instrumented crawl loop; the observable contract — every span, in
    publish order — is identical to ``batch_size=1``.
    """

    def test_publish_many_preserves_order_single_subscriber(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        events = [CounterEvent(name=f"c{i}") for i in range(5)]
        bus.publish_many(events)
        assert seen == events

    def test_publish_many_fans_out_per_event_with_many_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda event: seen.append(("first", event.name)))
        bus.subscribe(lambda event: seen.append(("second", event.name)))
        bus.publish_many([CounterEvent(name="a"), CounterEvent(name="b")])
        # Event order outranks subscriber order: all subscribers see "a"
        # before any sees "b" (same interleave as repeated publish()).
        assert seen == [("first", "a"), ("second", "a"), ("first", "b"), ("second", "b")]

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Instrumentation(batch_size=0)

    def test_spans_buffer_until_batch_boundary(self):
        hub = Instrumentation(batch_size=3)
        seen = []
        hub.bus.subscribe(seen.append)
        for step in (1, 2):
            hub.span("simulator", "fetch", start_s=0.0, duration_s=0.1, step=step)
        assert seen == []  # below the boundary: buffered, not delivered
        hub.span("simulator", "fetch", start_s=0.0, duration_s=0.1, step=3)
        assert [event.attrs["step"] for event in seen] == [1, 2, 3]
        # The registry never lags the buffer: aggregation is synchronous.
        assert hub.registry.timer("simulator.fetch").count == 3

    def test_flush_drains_partial_batch(self):
        hub = Instrumentation(batch_size=100)
        seen = []
        hub.bus.subscribe(seen.append)
        hub.span("simulator", "fetch", start_s=0.0, duration_s=0.1, step=1)
        hub.flush()
        assert [event.attrs["step"] for event in seen] == [1]
        hub.flush()  # idempotent on an empty buffer
        assert len(seen) == 1

    def test_close_flushes_pending_spans_to_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with Instrumentation(trace_path=path, batch_size=64) as hub:
            for step in range(5):
                hub.span("simulator", "fetch", start_s=0.0, duration_s=0.1, step=step)
        assert [record["step"] for record in read_trace(path)] == list(range(5))


class TestInstrumentationOverheadContract:
    """Satellite contract: exact event accounting per run.

    An instrumented crawl must emit exactly one span event per fetched
    page (no sampling, no loss from batching), and an uninstrumented
    crawl must emit zero events — the hot loop takes the no-telemetry
    branch, it does not publish-and-discard.
    """

    def test_emitted_events_equal_pages_fetched_exactly(self, tiny_web):
        hub = Instrumentation(batch_size=32)
        spans = []
        hub.bus.subscribe(spans.append)
        result = crawl(tiny_web, instrumentation=hub)
        fetch_spans = [e for e in spans if isinstance(e, SpanEvent)]
        assert len(fetch_spans) == result.pages_crawled
        assert [e.attrs["step"] for e in fetch_spans] == list(
            range(1, result.pages_crawled + 1)
        )

    def test_batched_and_unbatched_runs_emit_identical_span_streams(self, tiny_web):
        streams = []
        for batch_size in (1, 16):
            hub = Instrumentation(batch_size=batch_size)
            spans = []
            hub.bus.subscribe(spans.append)
            crawl(tiny_web, instrumentation=hub)
            streams.append(
                [(e.attrs["step"], e.attrs["url"], e.attrs["relevant"]) for e in spans]
            )
        assert streams[0] == streams[1]

    def test_no_instrumentation_emits_zero_events(self, tiny_web, monkeypatch):
        emitted = []
        monkeypatch.setattr(
            EventBus, "publish", lambda self, event: emitted.append(event)
        )
        monkeypatch.setattr(
            EventBus, "publish_many", lambda self, events: emitted.extend(events)
        )
        crawl(tiny_web, instrumentation=None)
        assert emitted == []

    def test_classifier_cache_counters_surface_as_gauges(self, tiny_web):
        from repro.core.classifier import ClassifierCache

        cache = ClassifierCache()
        hub = Instrumentation()
        crawl(tiny_web, hub, classifier=Classifier(Language.THAI, cache=cache))
        gauges = hub.registry.gauges
        assert gauges["classifier.cache.hits"] == cache.hits
        assert gauges["classifier.cache.misses"] == cache.misses
        assert cache.hits + cache.misses > 0
