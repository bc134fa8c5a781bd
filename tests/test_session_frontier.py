"""The one frontier-construction site: ``CrawlSession.open``.

The strategy decides link expansion, ``SessionConfig.frontier`` decides
the queue.  Whatever the config names, ``open`` calls the strategy's own
``make_frontier()`` first (its per-run reset point) and the engine talks
to the one real strategy object — so nothing about the strategy has to
be forwarded through a wrapper.  A strategy that re-ranks what it has
queued cannot run on a queue it did not make, and ``open`` refuses the
pair.  These tests hold that seam still from both sides: the strategy's
view (reset, refusal, ``tick``, link contexts, telemetry hub), the
checkpoint contract per queue, and the one ``src/`` caller of the spill
seat, ``scalefrontier.run_point``.
"""

from __future__ import annotations

import json
import re

import pytest

from repro.core.frontier import ReprioritizableFrontier
from repro.core.politeness import HostQueueFrontier, HostQueues
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.core.spilling import SpillConfig, SpillingFrontier
from repro.core.strategies import SimpleStrategy, get_strategy, iter_strategy_names
from repro.errors import CheckpointError, ConfigError
from repro.experiments import scalefrontier
from repro.experiments.golden import cued_golden_dataset
from repro.obs import Instrumentation

#: Every value ``SessionConfig.frontier`` takes.
FRONTIERS = {
    "own": None,
    "spill": SpillConfig(memory_limit=100_000),
    "host-queues": HostQueues(),
}
SUBSTITUTED = [name for name in FRONTIERS if name != "own"]

#: The orderings that re-rank URLs they have already queued.
RERANKERS = ["backlink-count", "distilled-soft", "infospiders", "pal-content-link", "pdd-hybrid"]


@pytest.fixture(scope="module")
def cued():
    return cued_golden_dataset()


def _session(dataset, strategy, frontier, **config) -> CrawlSession:
    config.setdefault("max_pages", 600)
    return CrawlSession(
        CrawlRequest(dataset=dataset, strategy=strategy),
        SessionConfig(sample_interval=50, frontier=frontier, **config),
    )


class TestStrategyResetPoint:
    """``make_frontier()`` resets a strategy, and a re-ranking strategy
    keeps the queue it made: a substituted one would never see its
    ``update_priority`` calls."""

    @pytest.mark.parametrize("name", ["backlink-count", "pdd-hybrid"])
    def test_reused_instance_reports_like_a_fresh_one(self, cued, name):
        def report(strategy) -> str:
            result = _session(cued, strategy, None).run()
            return json.dumps(report_payload(result), sort_keys=True)

        reused = get_strategy(name)
        report(reused)  # leaves backlink / content tables behind
        assert report(reused) == report(get_strategy(name))

    def test_the_re_rankers_are_the_strategies_with_a_reprioritizable_queue(self):
        assert [
            name
            for name in iter_strategy_names()
            if isinstance(get_strategy(name).make_frontier(), ReprioritizableFrontier)
        ] == RERANKERS

    @pytest.mark.parametrize("frontier", SUBSTITUTED)
    @pytest.mark.parametrize("name", RERANKERS)
    def test_re_ranker_on_a_substituted_queue_is_refused(self, cued, name, frontier):
        session = _session(cued, name, FRONTIERS[frontier])
        named = f"{re.escape(get_strategy(name).name)} .*{type(FRONTIERS[frontier]).__name__}"
        with pytest.raises(ConfigError, match=named):
            session.open()
        assert session.frontier is None

    @pytest.mark.parametrize("frontier", SUBSTITUTED)
    @pytest.mark.parametrize(
        "name", [name for name in iter_strategy_names() if name not in RERANKERS]
    )
    def test_every_other_strategy_runs_on_a_substituted_queue(self, cued, name, frontier):
        result = _session(cued, name, FRONTIERS[frontier], max_pages=30).run()
        assert result.pages_crawled == 30


class _Probe(SimpleStrategy):
    """Soft-focused, plus a record of everything the engine hands it."""

    wants_link_contexts = True

    def __init__(self) -> None:
        super().__init__(mode="soft")
        self.ticks: list[int] = []
        self.tick_queues: set[type] = set()
        self.contexts_given: list[bool] = []
        self.hubs: set[object] = set()

    def expand(self, parent, response, judgment, outlinks, link_contexts=None):
        if outlinks:
            self.contexts_given.append(link_contexts is not None)
        self.hubs.add(self.instrumentation)
        return super().expand(parent, response, judgment, outlinks, link_contexts)

    def tick(self, step, frontier) -> None:
        self.ticks.append(step)
        self.tick_queues.add(type(frontier))


class TestEngineTalksToTheRealStrategy:
    @pytest.mark.parametrize("frontier", FRONTIERS)
    def test_probe_sees_ticks_contexts_and_the_hub(self, cued, frontier):
        probe, hub = _Probe(), Instrumentation()
        session = _session(
            cued, probe, FRONTIERS[frontier], max_pages=200, instrumentation=hub
        ).open()
        queue = session.frontier
        result = session.run()
        assert probe.ticks == list(range(1, result.pages_crawled + 1))
        assert probe.tick_queues == {type(queue)}
        assert probe.contexts_given and all(probe.contexts_given)
        assert probe.hubs == {hub}

    def test_config_names_the_queue_and_the_label(self, cued):
        expected = {
            "own": (type(SimpleStrategy(mode="soft").make_frontier()), "soft-focused"),
            "spill": (SpillingFrontier, "spilling(soft-focused, mem=100000)"),
            "host-queues": (HostQueueFrontier, "polite(soft-focused)"),
        }
        for name, (queue_class, label) in expected.items():
            session = _session(cued, "soft-focused", FRONTIERS[name], max_pages=20)
            assert session.frontier is None  # not built before open
            session.open()
            assert type(session.frontier) is queue_class
            result = session.run()
            assert result.strategy == result.series.name == label

    def test_frontier_must_be_a_known_choice(self, cued):
        with pytest.raises(ConfigError, match="frontier="):
            _session(cued, "soft-focused", "host-queues")


class TestSpillDoesNotCheckpoint:
    """The spill file is disk state no checkpoint section carries (the
    ``checkpoint_every`` half is ``test_core_spilling``'s
    ``test_spill_rejects_checkpointing``)."""

    def test_resume_is_a_config_error(self, cued, tmp_path):
        path = tmp_path / "plain.ckpt"
        plain = _session(cued, "soft-focused", None, max_pages=50)
        plain.step()
        plain.save_checkpoint(path)
        plain.close()
        with pytest.raises(ConfigError, match="spill"):
            _session(cued, "soft-focused", SpillConfig(memory_limit=100), resume_from=path)

    def test_snapshot_is_a_checkpoint_error(self, cued):
        session = _session(cued, "soft-focused", SpillConfig(memory_limit=100))
        session.step(50)
        try:
            with pytest.raises(CheckpointError):
                session.snapshot()
        finally:
            session.close()


class TestScaleFrontierPoint:
    """``run_point`` with a spill limit: the one ``src/`` user of the seat.

    Digest and spill accounting were recorded from the last commit that
    built the queue by wrapping the strategy (``a537cd3``); the move to
    the config seat must not shift either.
    """

    def test_spill_point_is_pinned(self, tmp_path, monkeypatch):
        store_path = tmp_path / "thai-0.02.lswc"
        spec = {"profile": "thai", "scale": 0.02, "seed": None, "store_path": str(store_path)}
        scalefrontier.run_build(spec)

        labels: list[str] = []
        digest_of = scalefrontier._report_digest
        monkeypatch.setattr(
            scalefrontier,
            "_report_digest",
            lambda result: labels.append(result.strategy) or digest_of(result),
        )
        point = scalefrontier.run_point(
            {
                **spec,
                "backend": "store",
                "strategy": "soft-focused",
                "config": {
                    "max_pages": 1500,
                    "sample_interval": 1_000_000,
                    "frontier": {"kind": "spill-config", "memory_limit": 200},
                },
            }
        )
        assert labels == ["spilling(soft-focused, mem=200)"]
        assert point["pages_crawled"] == 1500
        assert point["spill"] == {
            "spilled": 280,
            "reloaded": 200,
            "peak_resident": 200,
            "peak_total": 453,
        }
        assert point["digest"] == (
            "7eb04a31da576899d07dbb93580a6494e576a21c881ebebfb6523de33ed7185c"
        )
