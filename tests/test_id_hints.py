"""The id-hint contract of the store fetch path.

Over a :class:`~repro.webspace.store.PageStore` a response carries the
url-ids of its outlinks, the engine stamps them on the candidates it
schedules, and a hinted fetch goes straight to ``record_at``.  A hint is
*verified*: whatever id a candidate carries — right, another page's,
dangling, out of range — the fetch answers exactly what the unhinted
fetch answers, bare and through the fault and adversary layers; a whole
crawl reports what the memory backend reports; and nothing about ids
reaches a checkpoint.
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

from repro import CrawlRequest, CrawlSession, SessionConfig, report_payload
from repro.adversary import AdversarialWebSpace
from repro.core.candidate import (
    Candidate,
    candidate_to_dict,
    candidates_to_columns,
    stamp_uid,
)
from repro.core.checkpoint import read_checkpoint
from repro.core.classifier import Classifier
from repro.core.engine import CrawlEngine
from repro.core.metrics import MetricsRecorder
from repro.core.strategies import get_strategy
from repro.core.timing import TimingModel
from repro.core.visitor import Visitor
from repro.experiments.datasets import build_dataset_store, open_dataset_store
from repro.experiments.runner import run_strategy
from repro.faults import FaultModel, FaultProfile, FaultyWebSpace
from repro.graphgen.profiles import thai_profile
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK
from repro.webspace.store import PageStore
from repro.webspace.virtualweb import FetchResponse, VirtualWebSpace

from conftest import ENGINE_SCENARIOS, faulted_inputs, hostile_defended_inputs


@pytest.fixture(scope="module")
def store_dataset(tmp_path_factory):
    """A captured dataset (so: with dangling link targets) served from a store."""
    path = tmp_path_factory.mktemp("id-hints") / "captured.lswc"
    build_dataset_store(thai_profile().scaled(0.05), path)
    dataset = open_dataset_store(path)
    yield dataset
    dataset.crawl_log.close()


@pytest.fixture(scope="module")
def memory_twin(store_dataset):
    """The same pages, materialised: the backend with no ids to hint with."""
    return replace(store_dataset, crawl_log=CrawlLog(iter(store_dataset.crawl_log)))


@pytest.fixture(scope="module")
def universe_dataset(tmp_path_factory):
    """An uncaptured universe: every link target is a page, as in the ledger."""
    path = tmp_path_factory.mktemp("id-hints") / "universe.lswc"
    build_dataset_store(thai_profile().scaled(0.02), path, capture_kind="none")
    dataset = open_dataset_store(path)
    yield dataset
    dataset.crawl_log.close()


@pytest.fixture()
def id_of_calls(monkeypatch):
    """Every URL ``PageStore.id_of`` is asked for, in order."""
    calls: list[str] = []
    real = PageStore.id_of

    def counting(self, url):
        calls.append(url)
        return real(self, url)

    monkeypatch.setattr(PageStore, "id_of", counting)
    return calls


#: The engine scenarios, plus the attacked crawl with no defenses armed:
#: only there are session-alias URLs fetched (the defended gate rewrites
#: them), and an alias is served another URL's record — the one response
#: whose page id must not be used for coverage.
SCENARIOS = {
    **ENGINE_SCENARIOS,
    "hostile-naive": lambda: {"adversary": hostile_defended_inputs()["adversary"]},
}

WEB_LAYERS = {
    "bare": lambda web: web,
    "faulty": lambda web: FaultyWebSpace(web, faulted_inputs()["faults"]),
    "adversarial": lambda web: AdversarialWebSpace(web, hostile_defended_inputs()["adversary"]),
}


class TestHintedFetchEqualsUnhinted:
    @pytest.mark.parametrize("layer", sorted(WEB_LAYERS))
    def test_every_kind_of_hint_fetches_the_unhinted_response(self, store_dataset, layer):
        store = store_dataset.crawl_log
        assert store.url_count > store.page_count, "fixture must have dangling targets"
        # Two identical stacks fetched in lockstep, so the stateful
        # layers (attempt counters, fetch indices) stay in step too.
        hinted = WEB_LAYERS[layer](VirtualWebSpace(store))
        plain = WEB_LAYERS[layer](VirtualWebSpace(store))
        urls = [store.url_of(uid) for uid in range(0, store.url_count, 97)]
        urls += [store.url_of(uid) for uid in range(store.page_count, store.url_count)]
        urls.append("http://nowhere.example/never.html")
        for url in urls:
            right = store.id_of(url)
            hints = {
                "right": right,
                "wrong-page": 0 if right != 0 else 1,
                "stale": (right or 0) + 1,
                "dangling": store.page_count,
                "negative": -1,
                "past-the-end": store.url_count + 7,
            }
            for kind, uid in hints.items():
                assert hinted.fetch(url, uid) == plain.fetch(url), (layer, kind, url)

    def test_a_response_carries_ids_aligned_with_its_outlinks(self, store_dataset):
        store = store_dataset.crawl_log
        web = VirtualWebSpace(store)
        emitting = 0
        for page_id in range(0, store.page_count, 53):
            response = web.fetch(store.url_of(page_id))
            assert response.page_id == page_id
            if response.outlinks:
                emitting += 1
                assert tuple(map(store.url_of, response.outlink_ids)) == response.outlinks
        assert emitting > 0
        assert web.fetch("http://nowhere.example/").page_id is None

    def test_memory_backend_responses_carry_no_ids(self, memory_twin):
        response = memory_twin.web().fetch(memory_twin.seed_urls[0])
        assert response.record is not None
        assert response.page_id is None and response.outlink_ids is None


class TestPositionalBuilders:
    """``VirtualWebSpace.fetch`` builds its responses from positional
    tuples, which no arity check guards, and the engine calls
    ``MetricsRecorder.record`` positionally: a field added, dropped or
    moved must fail here rather than as a misread field far away."""

    def test_every_fetch_shape_equals_the_response_built_by_keyword(
        self, store_dataset, memory_twin
    ):
        store = store_dataset.crawl_log
        shapes = set()
        for web, ids in ((VirtualWebSpace(store), True), (memory_twin.web(), False)):
            for page_id in range(0, store.page_count, 7):
                record = store.record_at(page_id)
                emits = record.status == STATUS_OK and record.content_type == HTML_CONTENT_TYPE
                shapes.add(emits)
                assert web.fetch(record.url) == FetchResponse(
                    url=record.url,
                    status=record.status,
                    content_type=record.content_type,
                    charset=record.charset,
                    outlinks=record.outlinks if emits else (),
                    size=record.size,
                    record=record,
                    page_id=page_id if ids else None,
                    outlink_ids=tuple(map(store.id_of, record.outlinks)) if ids and emits else None,
                )
            unknown = "http://nowhere.example/"
            assert web.fetch(unknown) == FetchResponse(
                url=unknown, status=404, content_type=HTML_CONTENT_TYPE, charset=None,
                outlinks=(), size=0,
            )
        assert shapes == {True, False}

    def test_the_engine_records_a_page_in_the_recorder_parameter_order(self):
        parameters = list(inspect.signature(MetricsRecorder.record).parameters)
        assert parameters == ["self", "url", "judged_relevant", "queue_size", "sim_time", "page_id"]


class TestCrawlsAgreeAcrossBackends:
    """Hints and coverage-by-id may change speed, never a report."""

    @pytest.mark.parametrize("concurrency", [None, 3])
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_store_report_equals_memory_report(
        self, store_dataset, memory_twin, scenario, concurrency
    ):
        reports = [
            report_payload(
                run_strategy(
                    dataset,
                    "soft-focused",
                    SessionConfig(
                        max_pages=1500, concurrency=concurrency, **SCENARIOS[scenario]()
                    ),
                )
            )
            for dataset in (store_dataset, memory_twin)
        ]
        assert reports[0] == reports[1]

    def test_reprioritising_strategy_keeps_hints_and_agrees(
        self, store_dataset, memory_twin, id_of_calls
    ):
        on_store = run_strategy(store_dataset, "backlink-count", SessionConfig(max_pages=800))
        store_calls = len(id_of_calls)
        on_memory = run_strategy(memory_twin, "backlink-count", SessionConfig(max_pages=800))
        assert report_payload(on_store) == report_payload(on_memory)
        # update_priority re-creates queued candidates; the hint rides along.
        assert store_calls < 100

    def test_wrongly_hinted_seeds_crawl_the_same_trace(self, universe_dataset):
        store = universe_dataset.crawl_log

        def trace(uid_for):
            rows = []
            strategy = get_strategy("soft-focused")
            engine = CrawlEngine(
                frontier=strategy.make_frontier(),
                visitor=Visitor(universe_dataset.web()),
                classifier=Classifier("thai"),
                strategy=strategy,
                max_pages=300,
                on_fetch=lambda event: rows.append(
                    (event.url, event.response.page_id, event.judgment.relevant)
                ),
            )
            for candidate in strategy.seed_candidates(universe_dataset.seed_urls):
                engine.offer(stamp_uid(candidate, uid_for(candidate.url)))
            engine.run()
            return rows

        clean = trace(lambda url: None)
        assert len(clean) == 300
        assert trace(lambda url: (store.id_of(url) + 1) % store.page_count) == clean
        assert trace(lambda url: -5) == clean
        assert trace(lambda url: 10**12) == clean
        assert trace(store.id_of) == clean


class TestIdOfCalls:
    def test_clean_store_crawl_hashes_only_its_seeds(self, universe_dataset, id_of_calls):
        result = CrawlSession(
            CrawlRequest(strategy="soft-focused", dataset=universe_dataset), SessionConfig()
        ).run()
        assert result.pages_crawled > 1000
        # One lookup per unhinted candidate, and only seeds are unhinted:
        # every other URL was an outlink the store handed out with its id.
        assert len(universe_dataset.seed_urls) == 10
        assert sorted(id_of_calls) == sorted(universe_dataset.seed_urls)

    def test_a_retried_fetch_keeps_its_hint(self, universe_dataset, id_of_calls):
        faults = FaultModel(FaultProfile(transient_error_rate=0.3), seed=1)
        result = CrawlSession(
            CrawlRequest(strategy="soft-focused", dataset=universe_dataset),
            SessionConfig(max_pages=600, faults=faults),
        ).run()
        assert result.resilience["retries"] > 100
        # Every attempt of a hinted candidate fetches by its id, so the
        # only URLs ever hashed are the unhinted seeds (once per attempt).
        assert set(id_of_calls) <= set(universe_dataset.seed_urls)

    def test_a_verified_dangling_hint_answers_without_hashing(self, store_dataset, id_of_calls):
        store = store_dataset.crawl_log
        web = VirtualWebSpace(store)
        dangling = range(store.page_count, store.url_count)
        assert len(dangling) >= 2, "fixture must have dangling targets"
        for uid in (dangling[0], dangling[-1]):
            url = store.url_of(uid)
            unhinted = web.fetch(url)
            assert unhinted.status == 404 and unhinted.record is None
            del id_of_calls[:]
            assert store.fetch_record(url, uid) == (None, None, None)
            assert web.fetch(url, uid) == unhinted
            assert id_of_calls == []
            # Another dangling URL's id proves nothing: one lookup, same answer.
            wrong = dangling[0] if uid != dangling[0] else dangling[1]
            assert web.fetch(url, wrong) == unhinted
            assert id_of_calls == [url]

    def test_resumed_frontier_is_unhinted_and_pays_one_lookup_a_page(
        self, universe_dataset, id_of_calls, tmp_path
    ):
        path = tmp_path / "crawl.ckpt"
        request = CrawlRequest(strategy="soft-focused", dataset=universe_dataset)
        CrawlSession(
            request, SessionConfig(max_pages=400, checkpoint_every=400, checkpoint_path=path)
        ).run()
        del id_of_calls[:]
        resumed = CrawlSession(request, SessionConfig(max_pages=700, resume_from=path)).run()
        assert resumed.pages_crawled == 700
        # The restored candidates carry no id (checkpoints hold none):
        # each costs the one lookup of its fetch — its coverage goes by
        # the id the response carries — and their children are hinted.
        assert 0 < len(id_of_calls) <= 300
        assert len(set(id_of_calls)) == len(id_of_calls)


class TestRestoredInFlightRecords:
    def test_a_resume_gets_one_record_per_restored_in_flight_event(
        self, universe_dataset, monkeypatch, tmp_path
    ):
        """Where a serve pass's ``PageStore.get`` calls come from: a
        ``concurrency=K`` checkpoint holds up to K in-flight fetches, and
        ``CrawlEngine.restore_events`` re-attaches each one's page record
        by URL (``response_from_dict``) — one ``get`` per restored event,
        nothing else on the resume path."""
        path = tmp_path / "crawl.ckpt"
        request = CrawlRequest(strategy="soft-focused", dataset=universe_dataset)
        config = SessionConfig(max_pages=600, concurrency=8, timing=TimingModel())
        session = CrawlSession(request, config).open()
        session.step(150)
        session.save_checkpoint(path)
        session.close()
        events = read_checkpoint(path).sched["events"]
        assert 0 < len(events) <= 8 and all(event["response"]["has_record"] for event in events)
        gets: list[str] = []
        real = PageStore.get

        def counting(self, url):
            gets.append(url)
            return real(self, url)

        monkeypatch.setattr(PageStore, "get", counting)
        CrawlSession(request, replace(config, resume_from=path)).open()
        assert gets == [event["response"]["url"] for event in events]


class TestCheckpointsHoldNoIds:
    def test_candidate_wire_form_ignores_the_hint(self):
        plain = Candidate(url="http://a.example/", priority=1, referrer="http://b.example/")
        hinted = stamp_uid(plain, 7)
        assert hinted.uid == 7 and plain.uid is None  # a copy: candidates are immutable
        assert hinted == plain and hash(hinted) == hash(plain)
        assert not hinted != plain
        assert candidate_to_dict(hinted) == candidate_to_dict(plain)
        assert candidates_to_columns([hinted], {}) == candidates_to_columns([plain], {})
        # The engine's alias path: a new URL, so no hint.
        assert hinted._replace(url="http://c.example/", uid=None).uid is None

    def test_a_candidate_cannot_be_assigned_to(self):
        candidate = Candidate(url="http://a.example/")
        for field in ("url", "priority", "uid", "anything"):
            with pytest.raises(AttributeError):
                setattr(candidate, field, 1)

    @pytest.mark.parametrize("concurrency", [None, 3])
    def test_store_checkpoint_bytes_equal_memory_checkpoint_bytes(
        self, store_dataset, memory_twin, concurrency, tmp_path
    ):
        """A store crawl's frontier is full of hinted candidates and its
        in-flight responses carry ids; the memory crawl has neither.  The
        files must not differ by a byte: no checkpoint format holds ids."""
        written = []
        for name, dataset in (("store", store_dataset), ("memory", memory_twin)):
            path = tmp_path / f"{name}.ckpt"
            run_strategy(
                dataset,
                "soft-focused",
                SessionConfig(
                    max_pages=600,
                    concurrency=concurrency,
                    checkpoint_every=600,
                    checkpoint_path=path,
                ),
            )
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert b'"uid"' not in written[0] and b"outlink_ids" not in written[0]


class TestCoverageById:
    def test_recorder_uses_the_id_only_when_the_set_offers_it(self, store_dataset):
        store = store_dataset.crawl_log
        by_id = store_dataset.relevant_urls()
        by_url = frozenset(by_id)
        relevant_page = store.id_of(next(iter(by_url)))
        irrelevant_page = next(
            page for page in range(store.page_count) if store.url_of(page) not in by_url
        )
        for relevant_urls in (by_id, by_url):
            recorder = MetricsRecorder("t", relevant_urls, sample_interval=1)
            url = store.url_of(relevant_page)
            recorder.record(url, True, 0, page_id=relevant_page)
            recorder.record(url, True, 0)
            recorder.record(store.url_of(irrelevant_page), False, 0, page_id=irrelevant_page)
            recorder.record("http://nowhere.example/", False, 0)
            assert recorder.finish("t")[1].covered_relevant == 2

    def test_by_id_and_by_url_membership_agree_on_every_page(self, store_dataset):
        store = store_dataset.crawl_log
        relevant = store_dataset.relevant_urls()
        for page_id in range(store.page_count):
            assert relevant.contains_id(page_id) == (store.url_of(page_id) in relevant)
