"""Differential test of the engine's scheduled-link filter.

A strategy that declares ``sees_scheduled_links = False`` says its
``expand`` is a pure per-link map, so the engine hands it only the
outlinks not yet scheduled.  The declaration must change nothing the
crawl computes: each declared ordering is crawled as shipped and with
the attribute forced back to the default on the instance, and both runs
must give the same report, fetch order, frontier tallies and mid-crawl
checkpoint bytes — on the golden and cued webs, from memory and from a
page store, round-based and with K = 8 fetches in flight.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine import EngineHook, EngineStage
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.core.strategies import (
    ContextGraphStrategy,
    CrawlStrategy,
    DistilledSoftStrategy,
    SimpleStrategy,
    get_strategy,
    iter_strategy_names,
)
from repro.core.timing import TimingModel
from repro.experiments.datasets import build_dataset_store, open_dataset_store
from repro.experiments.golden import (
    GOLDEN_MAX_PAGES,
    GOLDEN_SCALE,
    cued_golden_dataset,
    golden_dataset,
)
from repro.experiments.tournament import cued_thai_profile
from repro.graphgen.profiles import thai_profile
from repro.webspace.linkdb import LinkDB

#: Registered orderings whose expand is a pure per-link map.
DECLARED = {
    "breadth-first": {},
    "soft-focused": {},
    "hard-focused": {},
    "limited-distance": {"n": 1},
    "limited-distance-prioritized": {"n": 2, "prioritized": True},
    "hard+limited": {},
    "soft+limited": {},
}

#: The re-ranking orderings: they count or revisit every link occurrence.
RERANKERS = ("pdd-hybrid", "pal-content-link", "backlink-count", "distilled-soft", "infospiders")

ORDERINGS = [*DECLARED, "context-graph"]

CHECKPOINT_AT = 500


def _strategy(name: str, dataset) -> CrawlStrategy:
    if name == "context-graph":
        return ContextGraphStrategy(LinkDB(dataset.crawl_log), dataset.seed_urls, layers=3)
    return get_strategy(name.removesuffix("-prioritized"), **DECLARED[name])


@pytest.fixture(scope="module")
def webs(tmp_path_factory):
    """The golden and cued webs, each in memory and as a page store."""
    stores = []
    found = {"golden-memory": golden_dataset(), "cued-memory": cued_golden_dataset()}
    for web, profile in (
        ("golden", thai_profile().scaled(GOLDEN_SCALE)),
        ("cued", cued_thai_profile(GOLDEN_SCALE)),
    ):
        path = tmp_path_factory.mktemp(f"{web}-store") / f"{web}.lswc"
        build_dataset_store(profile, path)
        found[f"{web}-store"] = dataset = open_dataset_store(path)
        stores.append(dataset)
    yield found
    for dataset in stores:
        dataset.crawl_log.close()


def _crawl(dataset, strategy, concurrency, checkpoint, hooks=()) -> dict:
    """Everything a run computes that the filter could disturb."""
    fetched: list[tuple[int, str, bool]] = []
    config = SessionConfig(
        max_pages=GOLDEN_MAX_PAGES,
        on_fetch=lambda event: fetched.append((event.step, event.url, event.judgment.relevant)),
        hooks=tuple(hooks),
        concurrency=concurrency,
        timing=TimingModel() if concurrency is not None else None,
    )
    session = CrawlSession(CrawlRequest(dataset=dataset, strategy=strategy), config).open()
    session.step(CHECKPOINT_AT)
    session.save_checkpoint(checkpoint)
    session.step()
    frontier = session.frontier
    outcome = {
        "report": json.dumps(report_payload(session.report()), sort_keys=True),
        "fetched": fetched,
        "pushes": frontier.pushes,
        "peak_size": frontier.peak_size,
        "checkpoint": checkpoint.read_bytes(),
    }
    session.close()
    return outcome


class TestDeclaredOrderingsAreUnchanged:
    @pytest.mark.parametrize("concurrency", [None, 8], ids=["round", "k8"])
    @pytest.mark.parametrize("web", ["golden-memory", "golden-store", "cued-memory", "cued-store"])
    @pytest.mark.parametrize("name", ORDERINGS)
    def test_filtered_run_equals_the_unfiltered_run(self, webs, web, name, concurrency, tmp_path):
        dataset = webs[web]
        shipped = _strategy(name, dataset)
        assert shipped.sees_scheduled_links is False
        forced = _strategy(name, dataset)
        forced.sees_scheduled_links = True  # the default, on the instance
        filtered = _crawl(dataset, shipped, concurrency, tmp_path / "filtered.ckpt")
        unfiltered = _crawl(dataset, forced, concurrency, tmp_path / "unfiltered.ckpt")
        assert len(filtered["fetched"]) > CHECKPOINT_AT  # the checkpoint is mid-crawl
        for key in ("fetched", "pushes", "peak_size", "report", "checkpoint"):
            assert filtered[key] == unfiltered[key], key


class TestDeclarations:
    def test_every_registered_ordering_picks_a_side(self):
        assert {name.removesuffix("-prioritized") for name in DECLARED} | set(RERANKERS) == set(
            iter_strategy_names()
        )

    @pytest.mark.parametrize("name", RERANKERS)
    def test_rerankers_keep_the_default(self, name):
        strategy = get_strategy(name)
        assert strategy.sees_scheduled_links is True
        assert "sees_scheduled_links" not in type(strategy).__dict__


class _ExtractSpy(EngineHook):
    def __init__(self) -> None:
        self.seen: list[tuple[str, ...]] = []

    def on_stage(self, stage, step) -> None:
        if stage is EngineStage.EXTRACT:
            self.seen.append(tuple(step.outlinks))


class TestWhatStillSeesEveryLink:
    def test_extract_hooks_see_every_outlink_and_expand_only_new_ones(self, webs, tmp_path):
        dataset = webs["golden-memory"]
        runs = {}
        for declared in (False, True):
            strategy = SimpleStrategy(mode="soft")
            strategy.sees_scheduled_links = declared
            handed: list[int] = []
            expand = strategy.expand

            def counting(parent, response, judgment, outlinks, *rest, expand=expand, handed=handed):
                outlinks = tuple(outlinks)
                handed.append(len(outlinks))
                return expand(parent, response, judgment, outlinks, *rest)

            strategy.expand = counting
            spy = _ExtractSpy()
            _crawl(dataset, strategy, None, tmp_path / f"{declared}.ckpt", hooks=[spy])
            runs[declared] = spy.seen, handed
        (seen_filtered, handed_filtered), (seen_all, handed_all) = runs[False], runs[True]
        assert seen_filtered == seen_all
        assert handed_all == [len(links) for links in seen_all]
        assert 0 < sum(handed_filtered) < sum(handed_all)

    def test_an_instance_level_tick_runs(self, webs, tmp_path):
        strategy = SimpleStrategy(mode="soft")
        ticks: list[int] = []
        strategy.tick = lambda step, frontier: ticks.append(step)
        _crawl(webs["golden-memory"], strategy, None, tmp_path / "tick.ckpt")
        assert ticks == list(range(1, GOLDEN_MAX_PAGES + 1))

    def test_distilled_soft_still_distils(self, webs):
        strategy = DistilledSoftStrategy(distill_every=100)
        session = CrawlSession(
            CrawlRequest(dataset=webs["golden-memory"], strategy=strategy),
            SessionConfig(max_pages=GOLDEN_MAX_PAGES),
        )
        session.run()
        assert strategy.distillations > 0
        assert strategy.reprioritized > 0
