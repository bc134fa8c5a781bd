"""A reference oracle: the paper's crawl loop, written naively, against the engine.

:func:`oracle_crawl` is a simulator built from the paper's description
alone (§1.2 of PAPER.md: a visitor pops the URL queue, downloads the
page from the virtual web, the classifier judges it by its charset, the
observer prioritises its links, new URLs join the queue).  It uses a
dict for the web, a set for "already queued" and ``heapq`` for the URL
queue — no wrappers, caches, url-ids, runs or bands.  The engine's fetch
sequence (URL and relevance, step by step) must equal the oracle's on
the golden web, over both web-space backends, and on small generated
webs whose pages may repeat an outlink.
"""

from __future__ import annotations

import heapq
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language, language_of_charset
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import (
    BreadthFirstStrategy,
    LimitedDistanceStrategy,
    SimpleStrategy,
)
from repro.experiments.golden import GOLDEN_MAX_PAGES, golden_dataset
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.store import PageStore, StoreBuilder
from repro.webspace.virtualweb import VirtualWebSpace

#: The orderings the paper evaluates, by (kind, N, prioritized).
ORDERINGS: dict[str, tuple[str, int, bool]] = {
    "breadth-first": ("breadth-first", 0, False),
    "hard-focused": ("hard", 0, False),
    "soft-focused": ("soft", 0, False),
    **{
        f"limited-distance-n{n}{'-prioritized' if prioritized else ''}": (
            "limited", n, prioritized
        )
        for n in (1, 2, 3, 4)
        for prioritized in (False, True)
    },
}


def oracle_crawl(
    pages: dict[str, PageRecord],
    seeds: list[str],
    ordering: tuple[str, int, bool],
    target: Language,
    max_pages: int | None = None,
) -> list[tuple[str, bool]]:
    """The fetch sequence ``[(url, relevant), ...]`` of one crawl.

    Rules:

    - A page is relevant iff it was fetched with status 200, is HTML,
      and its declared charset names the target language.  A URL with no
      page is a fetch too (a 404): irrelevant, no links.  Only a relevant
      or irrelevant 200 HTML page yields its outlinks.
    - Each ordering gives all the links of one page the same priority
      and distance: breadth-first 0; hard-focused 0 from relevant pages
      and nothing from irrelevant ones; soft-focused 1 from relevant and
      0 from irrelevant pages; limited distance N gives distance 0 from
      relevant pages, parent distance + 1 from irrelevant ones (nothing
      beyond N), and priority N - distance when prioritised, else 0.
    - Seeds are queued first, in the order given, at distance 0 and the
      top priority (1 soft-focused, N prioritised limited distance, else
      0).
    - A URL joins the queue at most once in a crawl: a seed or link
      already queued (or fetched) is dropped, as is a later occurrence of
      a link on the same page.
    - The queue pops the highest priority first; equal priorities pop
      in the order they were queued.
    """
    kind, n, prioritized = ordering
    top = 1 if kind == "soft" else (n if prioritized else 0)
    queue: list[tuple[int, int, str, int]] = []  # (-priority, order, url, distance)
    queued: set[str] = set()

    def enqueue(url: str, priority: int, distance: int) -> None:
        if url not in queued:
            queued.add(url)
            heapq.heappush(queue, (-priority, len(queued), url, distance))

    for url in seeds:
        enqueue(url, top, 0)
    fetched: list[tuple[str, bool]] = []
    while queue and (max_pages is None or len(fetched) < max_pages):
        _, _, url, distance = heapq.heappop(queue)
        page = pages.get(url)
        ok = page is not None and page.status == 200 and page.content_type == "text/html"
        relevant = ok and language_of_charset(page.charset) is target
        fetched.append((url, relevant))
        if not ok:
            continue
        if kind == "breadth-first":
            priority, child_distance = 0, 0
        elif kind == "hard":
            if not relevant:
                continue
            priority, child_distance = 0, 0
        elif kind == "soft":
            priority, child_distance = (1 if relevant else 0), 0
        else:
            child_distance = 0 if relevant else distance + 1
            if child_distance > n:
                continue
            priority = n - child_distance if prioritized else 0
        for link in page.outlinks:
            enqueue(link, priority, child_distance)
    return fetched


def make_strategy(ordering: tuple[str, int, bool]):
    kind, n, prioritized = ordering
    if kind == "breadth-first":
        return BreadthFirstStrategy()
    if kind in ("hard", "soft"):
        return SimpleStrategy(mode=kind)
    return LimitedDistanceStrategy(n=n, prioritized=prioritized)


def engine_crawl(
    web: VirtualWebSpace,
    relevant_urls,
    seeds: list[str],
    ordering: tuple[str, int, bool],
    target: Language,
    max_pages: int | None = None,
) -> list[tuple[str, bool]]:
    fetched: list[tuple[str, bool]] = []
    CrawlSession(
        CrawlRequest(
            strategy=make_strategy(ordering),
            web=web,
            classifier=Classifier(target),
            seeds=tuple(seeds),
            relevant_urls=relevant_urls,
        ),
        SessionConfig(
            max_pages=max_pages,
            on_fetch=lambda event: fetched.append((event.url, event.judgment.relevant)),
        ),
    ).run()
    return fetched


def store_of(records, path: Path) -> PageStore:
    builder = StoreBuilder()
    builder.add_all(records)
    builder.finish(path)
    return PageStore(path)


@pytest.fixture(scope="module")
def golden():
    dataset = golden_dataset()
    pages = {record.url: record for record in dataset.crawl_log}
    return dataset, pages


@pytest.fixture(scope="module")
def golden_store(golden, tmp_path_factory):
    dataset, _ = golden
    store = store_of(dataset.crawl_log, tmp_path_factory.mktemp("oracle") / "golden.lswc")
    yield store
    store.close()


class TestGoldenWeb:
    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_memory_backend_matches_the_oracle(self, golden, name):
        dataset, pages = golden
        seeds = list(dataset.seed_urls)
        expected = oracle_crawl(
            pages, seeds, ORDERINGS[name], dataset.target_language, GOLDEN_MAX_PAGES
        )
        actual = engine_crawl(
            VirtualWebSpace(dataset.crawl_log), dataset.relevant_urls(), seeds,
            ORDERINGS[name], dataset.target_language, GOLDEN_MAX_PAGES,
        )
        assert len(expected) > 500  # not a trivial crawl
        assert actual == expected

    @pytest.mark.parametrize("name", sorted(ORDERINGS))
    def test_store_backend_matches_the_oracle(self, golden, golden_store, name):
        dataset, pages = golden
        seeds = list(dataset.seed_urls)
        expected = oracle_crawl(
            pages, seeds, ORDERINGS[name], dataset.target_language, GOLDEN_MAX_PAGES
        )
        actual = engine_crawl(
            VirtualWebSpace(golden_store), dataset.relevant_urls(), seeds,
            ORDERINGS[name], dataset.target_language, GOLDEN_MAX_PAGES,
        )
        assert actual == expected


N_PAGES = 10


@st.composite
def small_webs(draw):
    """Up to ten pages, some 404 or non-HTML, some Thai; a page's outlinks
    may repeat a URL and may name URLs no page answers."""
    urls = [f"http://h{index % 3}.example/p{index}" for index in range(N_PAGES + 3)]
    records = []
    for index in range(draw(st.integers(min_value=1, max_value=N_PAGES))):
        status = draw(st.sampled_from([200, 200, 200, 404]))
        records.append(
            PageRecord(
                url=urls[index],
                status=status,
                content_type=draw(st.sampled_from(["text/html", "text/html", "image/png"])),
                charset=draw(st.sampled_from(["TIS-620", "windows-874", "ISO-8859-1", None])),
                true_language=Language.OTHER,
                outlinks=tuple(
                    urls[target]
                    for target in draw(
                        st.lists(st.integers(min_value=0, max_value=len(urls) - 1), max_size=8)
                    )
                ),
                size=100,
            )
        )
    seeds = draw(st.lists(st.sampled_from(urls), min_size=1, max_size=3))
    return records, seeds


class TestSmallWebs:
    @given(small_webs(), st.sampled_from(sorted(ORDERINGS)))
    @settings(max_examples=60, deadline=None)
    def test_both_backends_match_the_oracle(self, web, name):
        records, seeds = web
        pages = {record.url: record for record in records}
        expected = oracle_crawl(pages, seeds, ORDERINGS[name], Language.THAI)
        log = CrawlLog(records)
        relevant = relevant_url_set(log, Language.THAI)
        assert engine_crawl(
            VirtualWebSpace(log), relevant, seeds, ORDERINGS[name], Language.THAI
        ) == expected
        with tempfile.TemporaryDirectory() as directory:
            store = store_of(records, Path(directory) / "web.lswc")
            try:
                assert engine_crawl(
                    VirtualWebSpace(store), relevant, seeds, ORDERINGS[name], Language.THAI
                ) == expected
            finally:
                store.close()

    def test_a_repeated_outlink_is_queued_once(self):
        a, b, c = "http://a.example/", "http://b.example/", "http://c.example/"
        records = [
            PageRecord(url=a, charset="TIS-620", outlinks=(b, c, b, c, b)),
            PageRecord(url=b, charset="TIS-620", outlinks=(c, a)),
            PageRecord(url=c, charset="ISO-8859-1"),
        ]
        log = CrawlLog(records)
        expected = [(a, True), (b, True), (c, False)]
        for ordering in ORDERINGS.values():
            pages = {record.url: record for record in records}
            assert oracle_crawl(pages, [a], ordering, Language.THAI) == expected
            assert engine_crawl(
                VirtualWebSpace(log), relevant_url_set(log, Language.THAI), [a], ordering,
                Language.THAI,
            ) == expected
