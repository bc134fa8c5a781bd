"""A page costs a fixed number of Python frames, whatever its out-degree.

The engine schedules a page's new links as one run, and the memory
fetch, the link extraction and the (cached) charset judgment are one
frame each, so the Python calls one crawl step makes do not grow with
the links on the page.  This is counted, not timed: ``sys.setprofile``
sees every Python ``call`` event of ``session.step``, over two webs that
differ only in out-degree (2 and 16).  Every page of both is fetched
with status 200 and has links nobody queued yet, so every step does the
same work: pop, fetch, judge, extract, expand, schedule one run, record.

The same two webs written as a :class:`~repro.webspace.store.PageStore`
hold the out-of-core fetch path to the same rule: every link of a page
is new to the store's URL cache and to the intern table, so every link
is decoded, and a page still costs the same frames at both degrees.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import repro
from repro.charset.languages import Language
from repro.core.classifier import Classifier, ClassifierCache
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.urlkit.normalize import clear_url_caches
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.store import PageStore, StoreBuilder
from repro.webspace.virtualweb import VirtualWebSpace

#: Python frames one crawl step may open: ``pop``; ``Visitor.fetch`` and
#: ``VirtualWebSpace.fetch``; ``judge``; ``extract``; ``expand`` and the
#: ``LinkRun`` it returns; ``push_run`` and its queue entry; ``record``;
#: and the queue's ``__len__`` twice (the loop's ``while frontier`` and
#: the recorded queue size).
FRAME_BUDGET = 12

#: Python frames one crawl step over a page store may open: the
#: :data:`FRAME_BUDGET` frames; ``PageStore.fetch_record`` in place of the
#: crawl log's C-level lookup, ``_materialise``, ``_decode_urls`` (every
#: link the URL cache misses, in one call) and
#: ``PageRecord.from_interned``; the second ``LinkRun`` the engine makes
#: to carry the links' url-ids; and the relevant set's ``contains_id``,
#: which ``record`` asks by page id.
STORE_FRAME_BUDGET = 18

#: Steps run before counting (the classifier cache's first misses), and counted.
WARM_UP, COUNTED = 20, 200

#: Calls of the counted ``session.step`` itself, whatever it steps: the
#: method, its budget check, ``open`` and ``CrawlEngine.run``.
STEP_CALLS = 4

#: Only the package's own frames count (not a garbage-collector callback
#: or the import machinery).
PACKAGE = os.path.dirname(repro.__file__) + os.sep


#: Thai under three labels: three classifier-cache keys.
THAI_CHARSETS = ("TIS-620", "windows-874", "ISO-8859-11")


def tree_web(degree: int, pages: int) -> CrawlLog:
    """Page ``i`` links to pages ``i * degree + 1`` … ``i * degree + degree``:
    a tree, so no link is ever found twice.  Every page is in Thai, so
    both orderings crawl it breadth first and fetch only pages that
    exist."""
    url = "http://h{}.example/p{}".format
    return CrawlLog(
        PageRecord(
            url=url(index % 7, index),
            charset=THAI_CHARSETS[index % 3],
            outlinks=tuple(
                url(child % 7, child)
                for child in range(index * degree + 1, index * degree + degree + 1)
            ),
            size=100,
        )
        for index in range(pages)
    )


def calls_per_page(strategy: str, degree: int, store_dir: Path | None = None) -> float:
    """Package frames per counted page; over a page store written to
    ``store_dir`` when one is given, else over the crawl log itself."""
    log = tree_web(degree, pages=(WARM_UP + COUNTED + 1) * degree + 1)
    source, relevant = log, relevant_url_set(log, Language.THAI)
    if store_dir is not None:
        builder = StoreBuilder()
        builder.add_all(log)
        builder.finish(store_dir / f"tree-{degree}.lswc")
        source = PageStore.open(store_dir / f"tree-{degree}.lswc")
        relevant = source.relevant_url_view(Language.THAI)
        clear_url_caches()  # every URL the store decodes is new to the intern table
    session = CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=VirtualWebSpace(source),
            classifier=Classifier(Language.THAI, cache=ClassifierCache()),
            seeds=(next(log.urls()),),
            relevant_urls=relevant,
        ),
        SessionConfig(),
    ).open()
    session.step(WARM_UP)
    calls = 0

    def count(frame, event, _arg) -> None:
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        stepped = session.step(COUNTED)
    finally:
        sys.setprofile(None)
    # The premise: every page crawled so far existed and queued all its links.
    assert stepped == COUNTED
    assert session.frontier.pushes == 1 + (WARM_UP + COUNTED) * degree
    session.close()
    if store_dir is not None:
        # ... and every link of every page was a URL-cache miss (the
        # page's own URL was decoded as its parent's link).
        stats = source.url_cache_stats()
        assert stats["misses"] == 1 + (WARM_UP + COUNTED) * degree
        source.close()
    return (calls - STEP_CALLS) / COUNTED


@pytest.mark.parametrize("strategy", ["soft-focused", "breadth-first"])
def test_calls_per_page_do_not_grow_with_out_degree(strategy):
    narrow, wide = calls_per_page(strategy, 2), calls_per_page(strategy, 16)
    assert narrow == wide
    assert narrow <= FRAME_BUDGET


@pytest.mark.parametrize("strategy", ["soft-focused", "breadth-first"])
def test_store_calls_per_page_do_not_grow_with_out_degree_or_misses(strategy, tmp_path):
    narrow = calls_per_page(strategy, 2, store_dir=tmp_path)
    wide = calls_per_page(strategy, 16, store_dir=tmp_path)
    assert narrow == wide
    assert narrow <= STORE_FRAME_BUDGET
