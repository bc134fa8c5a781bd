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
from repro.core.checkpoint import read_checkpoint
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.core.spilling import SpillConfig, SpillingFrontier
from repro.core.strategies import SimpleStrategy, get_strategy, iter_strategy_names
from repro.errors import CheckpointError, ConfigError
from repro.experiments import scalefrontier
from repro.experiments.datasets import build_dataset, build_dataset_store, open_dataset_store
from repro.experiments.golden import cued_golden_dataset
from repro.graphgen import thai_profile
from repro.obs import Instrumentation

from conftest import plain_columns

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


#: The paper's orderings, by registry name and parameters.
PAPER_ORDERINGS = [
    ("soft-focused", {}),
    ("hard-focused", {}),
    ("breadth-first", {}),
    *(
        ("limited-distance", {"n": n, "prioritized": prioritized})
        for n in (1, 2, 3, 4)
        for prioritized in (False, True)
    ),
]

#: A resident cap that the 0.05-scale Thai web overflows many times
#: over, so every crawl below spills and reads stretches back.
SPILL = SpillConfig(memory_limit=200)


@pytest.fixture(scope="module")
def thai05(tmp_path_factory):
    """The Thai web at scale 0.05, in memory and as a page store."""
    profile = thai_profile().scaled(0.05)
    path = tmp_path_factory.mktemp("thai05") / "thai05.lswc"
    build_dataset_store(profile, path)
    store = open_dataset_store(path)
    yield {"memory": build_dataset(profile), "store": store}
    store.crawl_log.close()


def _fetches(dataset, name, params, frontier, **config):
    """The fetch sequence, the report with its label taken out, and the
    spill accounting (None unspilled) of one crawl."""
    urls: list[str] = []
    session = CrawlSession(
        CrawlRequest(dataset=dataset, strategy=name, params=params),
        SessionConfig(
            sample_interval=250, frontier=frontier,
            on_fetch=lambda event: urls.append(event.url), **config,
        ),
    )
    result = session.run()
    stats = session.frontier.stats() if frontier is not None else None
    payload = json.loads(json.dumps(report_payload(result)).replace(result.strategy, "LABEL"))
    return urls, payload, stats


class TestSpilledEqualsUnspilled:
    """A spilled stretch is one more entry in its band, read back when
    it reaches the head: the spilling queue pops exactly what the
    unspilled queue pops, so the crawl fetches the same pages in the
    same order and reports the same figures — Fig 5's queue size too."""

    @pytest.mark.parametrize("backend", ["memory", "store"])
    @pytest.mark.parametrize(
        "name, params", PAPER_ORDERINGS, ids=[get_strategy(n, **p).name for n, p in PAPER_ORDERINGS]
    )
    def test_fetch_sequence_and_report(self, thai05, backend, name, params):
        dataset = thai05[backend]
        urls, payload, _ = _fetches(dataset, name, params, None)
        spilled_urls, spilled_payload, stats = _fetches(dataset, name, params, SPILL)
        assert stats.reloaded > 0, "the cap forced no reload: nothing was tested"
        assert stats.peak_resident <= SPILL.memory_limit
        assert spilled_urls == urls
        assert spilled_payload == payload


class TestSpillCheckpoints:
    """A snapshot reads the spilled stretches back, a restore spills down
    to the limit again: a spilled session checkpoints, resumes and is
    evicted like any other."""

    SPILL = SpillConfig(memory_limit=30)

    def _session(self, dataset, frontier, **config) -> CrawlSession:
        return CrawlSession(
            CrawlRequest(dataset=dataset, strategy="soft-focused"),
            SessionConfig(max_pages=900, sample_interval=50, frontier=frontier, **config),
        )

    @pytest.mark.parametrize("concurrency", [None, 8], ids=["round-based", "K=8"])
    def test_cut_and_resumed_equals_uninterrupted(self, cued, tmp_path, concurrency):
        full_urls: list[str] = []
        full = self._session(
            cued, self.SPILL, concurrency=concurrency,
            on_fetch=lambda event: full_urls.append(event.url),
        ).run()
        for cut in (1, 200, 450, 700):
            partial = self._session(cued, self.SPILL, concurrency=concurrency).open()
            partial.step(cut)
            assert partial.frontier.stats().spilled > 0 or cut == 1
            path = tmp_path / f"cut{cut}.ckpt"
            partial.save_checkpoint(path)
            partial.close()
            # The checkpoint's queue is the unspilled queue at the same cut.
            plain = self._session(cued, None, concurrency=concurrency).open()
            plain.step(cut)
            state, plain_state = read_checkpoint(path), plain.snapshot()
            plain.close()
            assert state.urls == plain_state.urls
            assert plain_columns(state.frontier) == plain_columns(plain_state.frontier)

            urls: list[str] = []
            session = self._session(
                cued, self.SPILL, concurrency=concurrency, resume_from=path,
                on_fetch=lambda event: urls.append(event.url),
            ).open()
            assert session.frontier.resident_size <= self.SPILL.memory_limit
            resumed = session.run()
            assert urls == full_urls[len(full_urls) - len(urls):], f"cut={cut}"
            assert report_payload(resumed) == report_payload(full), f"cut={cut}"

    def test_periodic_checkpoints_resume_to_the_same_report(self, cued, tmp_path):
        path = tmp_path / "spill.ckpt"
        config = {"checkpoint_every": 100, "checkpoint_path": path}
        full = self._session(cued, self.SPILL, **config).run()
        killed = self._session(cued, self.SPILL, **config)
        killed.step(350)  # the last checkpoint was written at page 300
        killed.close()
        resumed = self._session(cued, self.SPILL, resume_from=path, **config).run()
        assert resumed.resilience["checkpoints_written"] == full.resilience["checkpoints_written"]
        assert report_payload(resumed) == report_payload(full)

    @pytest.mark.parametrize(
        "taken, resumed",
        [(SPILL, SpillConfig(memory_limit=31)), (SPILL, None), (None, SPILL)],
        ids=["other-limit", "spilled-to-plain", "plain-to-spilled"],
    )
    def test_resume_under_another_queue_is_a_label_error(self, cued, tmp_path, taken, resumed):
        path = tmp_path / "taken.ckpt"
        session = self._session(cued, taken)
        session.step(300)
        session.save_checkpoint(path)
        session.close()
        with pytest.raises(CheckpointError, match=r"cannot resume it with"):
            self._session(cued, resumed, resume_from=path).open()


class TestScaleFrontierPoint:
    """``run_point`` with a spill limit: the one ``src/`` user of the seat.

    The spill accounting and digest are pinned; the spilled point
    crawls as the unspilled point does, so their reports are equal but
    for the label.
    """

    def test_spill_point_is_pinned(self, tmp_path, monkeypatch):
        store_path = tmp_path / "thai-0.02.lswc"
        spec = {"profile": "thai", "scale": 0.02, "seed": None, "store_path": str(store_path)}
        scalefrontier.run_build(spec)

        results: list = []
        digest_of = scalefrontier._report_digest
        monkeypatch.setattr(
            scalefrontier,
            "_report_digest",
            lambda result: results.append(result) or digest_of(result),
        )
        def run_point(**frontier) -> dict:
            config = {"max_pages": 1500, "sample_interval": 1_000_000, **frontier}
            return scalefrontier.run_point(
                {**spec, "backend": "store", "strategy": "soft-focused", "config": config}
            )

        point = run_point(frontier={"kind": "spill-config", "memory_limit": 200})
        unspilled = run_point()
        assert [result.strategy for result in results] == [
            "spilling(soft-focused, mem=200)",
            "soft-focused",
        ]
        assert point["pages_crawled"] == 1500
        assert point["spill"] == {
            "spilled": 460,
            "reloaded": 440,
            "peak_resident": 200,
            "peak_total": 492,
        }
        assert point["digest"] == (
            "32b7605481067615f3bc206dc72f30dc1aabc4969162f6b47949730e72c1394c"
        )
        spilled, plain = (
            json.dumps(report_payload(result)).replace(result.strategy, "LABEL")
            for result in results
        )
        assert spilled == plain
        assert unspilled["spill"] is None
