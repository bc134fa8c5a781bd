"""Unit tests for the columnar page store (`repro.webspace.store`)."""

from __future__ import annotations

import dataclasses
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import (
    GOLDEN_STORE_FIXTURE, V1_STORE_FIXTURE, poke_store, reseal_store, store_sections,
)
from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.errors import CrawlLogError, UnknownPageError
from repro.experiments.datasets import open_dataset_store
from repro.experiments.runner import run_strategy
from repro.urlkit import normalize as normalize_module
from repro.urlkit.normalize import clear_url_caches, intern_url
from repro.webspace.crawllog import CrawlLog
from repro.webspace.linkdb import LinkDB
from repro.webspace import store as store_module
from repro.webspace.page import PageRecord
from repro.webspace.store import PageStore, StoreBuilder, StoreLinkDB


def _record(url, outlinks=(), status=200, charset="TIS-620", size=1000):
    return PageRecord(
        url=url,
        status=status,
        content_type="text/html",
        charset=charset if status == 200 else None,
        true_language=Language.THAI,
        outlinks=tuple(outlinks) if status == 200 else (),
        size=size,
    )


RECORDS = [
    _record("http://a.example/", ["http://b.example/", "http://x.example/"]),
    _record("http://b.example/", ["http://a.example/"], charset=None),
    _record("http://c.example/", status=404),
    # Last page with outlinks: its arena slice ends at the arena boundary.
    _record("http://d.example/", ["http://y.example/"]),
]


def url_reads(store, monkeypatch) -> list[int]:
    """Every url id ``store`` decodes from now on, in order.  A decode is
    one ``pread`` that ``_decode_urls`` makes, at the start of the id's row
    of the URL arena (``id_of`` reads rows too, to compare bytes)."""
    row_at = {
        store._url_arena_start + low: uid
        for uid, low in enumerate(store._url_offsets[:-1].tolist())
    }
    decoding = PageStore._decode_urls.__code__
    reads: list[int] = []
    real = os.pread

    def pread(fd, size, offset):
        if fd == store._fd and sys._getframe(1).f_code is decoding:
            reads.append(row_at[offset])
        return real(fd, size, offset)

    monkeypatch.setattr(store_module.os, "pread", pread)
    return reads


def arena_url(store, uid: int) -> str:
    """Url ``uid`` read straight from the file: no cache, no store code."""
    low, high = store._url_offsets[uid : uid + 2].tolist()
    with open(store.path, "rb") as handle:
        handle.seek(store._url_arena_start + low)
        return handle.read(high - low).decode("utf-8")


@pytest.fixture()
def store(tmp_path):
    builder = StoreBuilder()
    builder.add_all(RECORDS)
    builder.finish(
        tmp_path / "t.lswc", meta={"name": "unit", "seed_urls": ["http://a.example/"]}
    )
    with PageStore.open(tmp_path / "t.lswc") as opened:
        yield opened


class TestStoreBuilder:
    def test_duplicate_url_rejected(self, tmp_path):
        builder = StoreBuilder()
        builder.add(_record("http://a.example/"))
        with pytest.raises(CrawlLogError, match="duplicate"):
            builder.add(_record("http://a.example/"))

    def test_empty_store_rejected(self, tmp_path):
        with pytest.raises(CrawlLogError, match="no pages"):
            StoreBuilder().finish(tmp_path / "empty.lswc")

    def test_open_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.lswc"
        path.write_bytes(b"not a page store at all")
        with pytest.raises(CrawlLogError, match="magic"):
            PageStore.open(path)


class TestPageStore:
    def test_counts(self, store):
        assert store.page_count == len(store) == 4
        # 4 pages + 2 dangling link targets (x, y).
        assert store.url_count == 6
        assert store.link_count == 4

    def test_meta_and_seeds(self, store):
        assert store.meta["name"] == "unit"
        assert store.seed_urls == ("http://a.example/",)

    def test_records_round_trip(self, store):
        assert list(store) == RECORDS
        for index, record in enumerate(RECORDS):
            assert store.record_at(index) == record
            assert store.get(record.url) == record
            assert store[record.url] == record
            assert record.url in store

    def test_unknown_lookups(self, store):
        assert store.get("http://never.example/") is None
        assert "http://never.example/" not in store
        with pytest.raises(UnknownPageError):
            store["http://never.example/"]

    def test_dangling_targets_have_ids_but_no_pages(self, store):
        uid = store.id_of("http://x.example/")
        assert uid is not None and uid >= store.page_count
        assert store.url_of(uid) == "http://x.example/"
        assert store.page_id_of("http://x.example/") is None
        assert store.get("http://x.example/") is None

    def test_id_url_inverse(self, store):
        for uid in range(store.url_count):
            assert store.id_of(store.url_of(uid)) == uid
        assert store.id_of("http://never.example/") is None
        with pytest.raises(UnknownPageError):
            store.url_of(store.url_count)

    def test_page_ids_prefix_url_ids(self, store):
        for page_id, record in enumerate(RECORDS):
            assert store.id_of(record.url) == page_id
            assert store.page_id_of(record.url) == page_id

    def test_outlink_ids_match_records(self, store):
        for page_id, record in enumerate(RECORDS):
            ids = store.outlink_ids(page_id)
            assert tuple(store.url_of(int(uid)) for uid in ids) == record.outlinks

    @pytest.mark.parametrize("page_id", [-1, -4, 4, 10**6])
    def test_row_accessors_reject_out_of_range_ids(self, store, page_id):
        # A negative id used to wrap the numpy index and silently return
        # another page's row; ids now travel as hints, so it must raise.
        for accessor in (store.outlink_ids, store.link_cue_row, store.record_at):
            with pytest.raises(UnknownPageError, match="out of range"):
                accessor(page_id)

    def test_section_sizes_cover_file(self, store, tmp_path):
        sizes = store.section_sizes()
        assert set(sizes) >= {"status", "link_offsets", "link_arena", "url_arena"}
        assert all(size >= 0 for size in sizes.values())
        assert store.nbytes == sum(sizes.values())

    def test_closed_store_rejects_reads(self, tmp_path):
        builder = StoreBuilder()
        builder.add(_record("http://a.example/"))
        builder.finish(tmp_path / "c.lswc")
        opened = PageStore.open(tmp_path / "c.lswc")
        opened.close()
        with pytest.raises(CrawlLogError, match="closed"):
            opened.get("http://a.example/")
        opened.close()  # idempotent


class TestCueColumn:
    """The optional ``link_cues`` section: what the writer accepts and
    what the reader does with a damaged byte."""

    CUED = [
        PageRecord(
            url="http://a.example/",
            true_language=Language.THAI,
            outlinks=("http://b.example/", "http://x.example/"),
            link_cues=(0x0A, 0),
        ),
        PageRecord(url="http://b.example/", outlinks=("http://a.example/",), link_cues=(0x1A,)),
    ]

    @pytest.fixture()
    def cued_path(self, tmp_path):
        builder = StoreBuilder()
        builder.add_all(self.CUED)
        builder.finish(tmp_path / "cued.lswc")
        return tmp_path / "cued.lswc"

    def test_cue_rows_round_trip(self, cued_path):
        with PageStore.open(cued_path) as store:
            assert [store.record_at(page_id) for page_id in range(2)] == self.CUED

    @pytest.mark.parametrize("damage", [0x0E, 0x0F, 0x1F, 0x2A, 0xFF])
    def test_one_damaged_byte_is_a_named_error_at_the_page(self, cued_path, tmp_path, damage):
        """Used to materialise fine and raise a bare IndexError from
        inside a context strategy's expand, mid-crawl.  The byte fails the
        cue section's checksum at open; resealed, it fails at the page."""
        data = bytearray(cued_path.read_bytes())
        offset = store_sections(data)["link_cues"][0] + 2  # b.example's only cue
        assert data[offset] == 0x1A
        data[offset] = damage
        copy = tmp_path / "damaged.lswc"
        copy.write_bytes(bytes(data))
        with pytest.raises(CrawlLogError, match="section link_cues fails its checksum"):
            PageStore.open(copy)
        copy.write_bytes(reseal_store(bytes(data)))
        with PageStore.open(copy) as store:
            assert store.get("http://a.example/") == self.CUED[0]
            with pytest.raises(CrawlLogError, match=f"b.example.*invalid link cue byte {damage}"):
                store.get("http://b.example/")
            with pytest.raises(CrawlLogError, match="invalid link cue byte"):
                store.fetch_record("http://b.example/", hint=1)

    @pytest.mark.parametrize("cues", [(0,), (0, 0, 0), (0x0E, 0)])
    def test_writer_rejects_ragged_and_undecodable_rows(self, tmp_path, cues):
        builder = StoreBuilder()
        builder.add(
            PageRecord(
                url="http://a.example/",
                outlinks=("http://b.example/", "http://x.example/"),
                link_cues=cues,
            )
        )
        with pytest.raises(CrawlLogError, match="a.example.*link.cue"):
            builder.finish(tmp_path / "bad.lswc")


class TestFetchRecord:
    """The hint-accepting lookup the virtual web space fetches through."""

    def test_unhinted_matches_get_and_carries_ids(self, store):
        for page_id, expected in enumerate(RECORDS):
            record, found_id, link_ids = store.fetch_record(expected.url)
            assert record == expected and found_id == page_id
            assert link_ids == tuple(store.outlink_ids(page_id).tolist())
            assert tuple(store.url_of(uid) for uid in link_ids) == record.outlinks
        assert store.fetch_record("http://never.example/") == (None, None, None)
        assert store.fetch_record("http://x.example/") == (None, None, None)  # dangling

    @pytest.mark.parametrize("hint", [None, 0, 1, 3, 4, 5, 6, -1, 10**9])
    def test_any_hint_gives_the_unhinted_answer(self, store, hint):
        # Right, another page's, dangling (4, 5), out of range: all equal.
        for url in [record.url for record in RECORDS] + ["http://x.example/", "http://no/"]:
            assert store.fetch_record(url, hint) == store.fetch_record(url)

    def test_right_hint_skips_the_hash_lookup(self, store, monkeypatch):
        calls = []
        real = store.id_of
        monkeypatch.setattr(store, "id_of", lambda url: calls.append(url) or real(url))
        assert store.fetch_record("http://b.example/", 1)[1] == 1
        assert calls == []
        assert store.fetch_record("http://b.example/", 0)[1] == 1  # wrong page's id
        assert calls == ["http://b.example/"]


class TestUrlCache:
    """The bounded decoded-URL cache: size, exact FIFO order, reset."""

    @pytest.fixture()
    def decoded(self, store, monkeypatch):
        """Bound the cache at 3 and list every uid that misses it (its arena read)."""
        monkeypatch.setattr(store_module, "_URL_CACHE_MAX", 3)
        return url_reads(store, monkeypatch)

    def test_size_never_exceeds_bound(self, store, decoded):
        for uid in (0, 1, 2, 3, 4, 5, 0, 1, 2, 5, 5, 3):
            store.url_of(uid)
            assert len(store._url_cache) <= 3

    def test_eviction_is_first_decoded_first_out(self, store, decoded):
        for uid in (0, 1, 2):
            store.url_of(uid)
        store.url_of(0)  # a hit does not refresh: FIFO, not LRU
        store.url_of(3)  # so this evicts 0 ...
        store.url_of(1)  # ... and 1 is still cached
        assert decoded == [0, 1, 2, 3]
        store.url_of(0)  # evicts 1
        store.url_of(2)  # hit
        store.url_of(1)  # evicts 2
        store.url_of(2)  # evicts 3
        assert decoded == [0, 1, 2, 3, 0, 1, 2]
        assert list(store._url_cache) == [0, 1, 2]

    def test_release_resets_cache_and_eviction_state(self, store, decoded):
        for uid in (0, 1, 2):
            store.url_of(uid)
        store.release_page_cache()
        assert len(store._url_cache) == 0
        # A stale eviction queue would evict a key the cache no longer
        # holds (KeyError) or evict early; after the reset the cache
        # fills to the bound again before its first eviction.
        for uid in (3, 4, 5):
            store.url_of(uid)
        assert len(store._url_cache) == 3
        store.url_of(0)  # evicts 3, the first decoded since the reset
        store.url_of(4)  # hit
        assert decoded == [0, 1, 2, 3, 4, 5, 0]

    def test_a_whole_crawl_under_a_small_cache_counts_the_same(self, monkeypatch):
        # A soft-focused crawl to the end of the golden web through a
        # 256-entry cache: rows probe, miss and evict all the way, so this
        # pins the cache's exact order of lookups, decodes and evictions
        # over a real crawl, whatever batches the decodes.
        monkeypatch.setattr(store_module, "_URL_CACHE_MAX", 256)
        dataset = open_dataset_store(GOLDEN_STORE_FIXTURE)
        try:
            assert run_strategy(dataset, "soft-focused").pages_crawled == 1678
            assert dataset.crawl_log.url_cache_stats() == {
                "lookups": 10069, "hits": 4149, "misses": 5920, "evictions": 5664, "size": 256,
            }
        finally:
            dataset.crawl_log.close()

    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_any_access_sequence_returns_the_uncached_strings(self, accesses):
        with tempfile.TemporaryDirectory() as directory:
            builder = StoreBuilder()
            builder.add_all(RECORDS)
            builder.finish(Path(directory) / "p.lswc")
            with PageStore.open(Path(directory) / "p.lswc") as store, mock.patch.object(
                store_module, "_URL_CACHE_MAX", 2
            ):
                fifo: list[int] = []  # reference model of the cache's keys
                for uid in accesses:
                    assert store.url_of(uid) == arena_url(store, uid)
                    if uid not in fifo:
                        fifo = (fifo + [uid])[-2:]
                    assert sorted(store._url_cache) == sorted(fifo)


class TestFusedFetchPath:
    """One routine builds every record: what it hands out, what it
    counts, and what a damaged row or a short read turns into."""

    #: Cues *and* dangling targets (x, y), rows longer than the cache
    #: bound used below, a self link, and pages that emit nothing.
    PAGES = [
        PageRecord(
            url="http://a.example/",
            true_language=Language.THAI,
            charset="TIS-620",
            outlinks=(
                "http://b.example/", "http://x.example/", "http://c.example/",
                "http://a.example/", "http://d.example/", "http://y.example/",
            ),
            size=900,
            link_cues=(0x0A, 0, 0x1A, 0, 0x08, 0x10),
        ),
        PageRecord(url="http://b.example/", outlinks=("http://a.example/",), link_cues=(0x1A,)),
        PageRecord(url="http://c.example/", status=404),
        PageRecord(url="http://d.example/doc.pdf", content_type="application/pdf", size=7),
        PageRecord(
            url="http://d.example/",
            charset="EUC-JP",
            true_language=Language.JAPANESE,
            outlinks=("http://y.example/", "http://b.example/", "http://d.example/doc.pdf"),
            link_cues=(0, 0x09, 0),
        ),
        PageRecord(url="http://e.example/", outlinks=(), link_cues=()),
    ]

    @pytest.fixture()
    def path(self, tmp_path):
        builder = StoreBuilder()
        builder.add_all(self.PAGES)
        builder.finish(tmp_path / "fused.lswc")
        return tmp_path / "fused.lswc"

    def test_every_hint_builds_the_public_constructors_record(self, path, monkeypatch):
        # A bound of 4 under rows of 6: a miss late in a row evicts a
        # hit found earlier in the same row.
        monkeypatch.setattr(store_module, "_URL_CACHE_MAX", 4)
        with PageStore.open(path) as store:
            decodes = url_reads(store, monkeypatch)
            assert (store.page_count, store.url_count) == (6, 8)
            handed_out = 0
            for page_id, expected in enumerate(self.PAGES):
                hints = {
                    "right": page_id,
                    "another page's": (page_id + 1) % 6,
                    "dangling": 6,
                    "out of range": 8,
                    "negative": -3,
                    "none": None,
                }
                for kind, hint in hints.items():
                    before = store.url_cache_stats()["lookups"]
                    record, found_id, link_ids = store.fetch_record(expected.url, hint)
                    # Wrong hints are verified, which hands out URLs too.
                    handed_out += store.url_cache_stats()["lookups"] - before
                    assert found_id == page_id, kind
                    for field in dataclasses.fields(PageRecord):
                        got, want = getattr(record, field.name), getattr(expected, field.name)
                        assert got == want and type(got) is type(want), (kind, field.name)
                    assert record == expected and hash(record) == hash(expected)
                    assert len(link_ids) == len(record.outlinks)
                    assert all(type(uid) is int for uid in link_ids)
                    assert tuple(arena_url(store, uid) for uid in link_ids) == record.outlinks
                    for url in (record.url, *record.outlinks):
                        assert url is intern_url(url), (kind, url)
            stats = store.url_cache_stats()
            assert stats["hits"] + stats["misses"] == stats["lookups"] == handed_out
            assert stats["misses"] == len(decodes)
            assert stats["evictions"] == stats["misses"] - 4 and stats["size"] == 4

    def test_decodes_keep_the_intern_tables_generation_rule(self, path, monkeypatch):
        # A table of 3 fills within the first row: the store's decodes
        # clear it where intern_url would (on a new URL, when full).
        monkeypatch.setattr(normalize_module, "_INTERN_MAX", 3)
        clear_url_caches()
        with PageStore.open(path) as store:
            decodes = url_reads(store, monkeypatch)
            for page_id in range(len(self.PAGES)):
                store.record_at(page_id)
                assert len(normalize_module._intern_table) <= 3
            table: dict[str, str] = {}  # intern_url's rule, replayed
            for uid in decodes:
                url = arena_url(store, uid)
                if url not in table and len(table) >= 3:
                    table.clear()
                table.setdefault(url, url)
            assert len(decodes) == store.url_cache_stats()["misses"] > 3
            assert normalize_module._intern_table == table

    def test_counters_add_one_lookup_per_url_handed_out(self, path):
        with PageStore.open(path) as store:
            assert store.url_cache_stats() == {
                "lookups": 0, "hits": 0, "misses": 0, "evictions": 0, "size": 0,
            }
            store.record_at(0)  # 1 + 6 URLs, one of them the page itself: 6 decodes
            assert store.url_cache_stats() == {
                "lookups": 7, "hits": 1, "misses": 6, "evictions": 0, "size": 6,
            }
            store.record_at(1)  # b and a: both cached
            store.url_of(7)  # y, cached
            assert store.url_cache_stats() == {
                "lookups": 10, "hits": 4, "misses": 6, "evictions": 0, "size": 6,
            }
            store.release_page_cache()
            assert store.url_cache_stats()["size"] == 0

    def test_every_entry_point_goes_through_the_one_routine(self, path, monkeypatch):
        with PageStore.open(path) as store:
            seen: list[int] = []
            real = store._materialise
            monkeypatch.setattr(
                store, "_materialise", lambda page_id: seen.append(page_id) or real(page_id)
            )
            url = self.PAGES[4].url
            assert store.record_at(4) == store.get(url) == store[url] == self.PAGES[4]
            assert store.fetch_record(url)[0] == store.fetch_record(url, 4)[0] == self.PAGES[4]
            assert seen == [4] * 5
            assert list(store) == self.PAGES
            assert seen[5:] == list(range(6))

    @pytest.mark.parametrize("section", ["link_arena", "url_arena"])
    def test_a_short_read_is_a_named_error_at_the_page(self, path, section):
        with PageStore.open(path) as store:
            start = {"link_arena": store._link_arena_start, "url_arena": store._url_arena_start}
            os.truncate(path, start[section] + 3)  # mid-row: every read there comes back short
            with pytest.raises(CrawlLogError, match=rf"fused\.lswc.*\b0\b.*{section} read 3 of"):
                store.fetch_record("http://a.example/", 0)
            with pytest.raises(CrawlLogError, match=f"{section} read"):
                store.record_at(0)

    @pytest.mark.parametrize("bad", [8, -1, 127])  # the table size, -1, the row dtype's max
    def test_a_link_id_outside_the_url_table_is_a_named_error(self, path, tmp_path, bad):
        """A crafted row that passes its checksums still fails at the page, by name."""
        data = path.read_bytes()
        with PageStore.open(path) as store:
            assert store.outlink_ids(0).tolist()[2] == 2  # a.example's third link
            assert (store.url_count, np.iinfo(store.outlink_ids(0).dtype).max) == (8, 127)
        damaged = tmp_path / "damaged.lswc"
        damaged.write_bytes(poke_store(data, "link_arena", 2, bad))
        with PageStore.open(damaged) as store:
            assert store.get("http://b.example/") == self.PAGES[1]
            with pytest.raises(CrawlLogError, match=rf"damaged\.lswc: page 0: .*url id {bad} out"):
                store.fetch_record("http://a.example/", 0)
            with pytest.raises(UnknownPageError):  # a caller's bad id is still the caller's
                store.url_of(bad)

    def test_an_int64_link_id_outside_the_url_table_is_a_named_error(self, tmp_path):
        """The v1 fixture's link rows are int64: a 2**40 id reads back whole."""
        data = V1_STORE_FIXTURE.read_bytes()
        with PageStore.open(V1_STORE_FIXTURE) as store:
            page = next(page for page in range(store.page_count) if len(store.outlink_ids(page)))
            low = int(store._link_offsets[page])
            url = store.url_of(page)
        damaged = tmp_path / "damaged.lswc"
        damaged.write_bytes(poke_store(data, "link_arena", low, 2**40))
        with PageStore.open(damaged) as store:
            with pytest.raises(CrawlLogError, match=rf"damaged\.lswc: page {page}: .*url id {2**40} out"):
                store.fetch_record(url, page)


class TestStoreLinkDB:
    def test_matches_in_memory_linkdb(self, store):
        reference = LinkDB(CrawlLog(RECORDS))
        db = StoreLinkDB(store)
        targets = [store.url_of(uid) for uid in range(store.url_count)]
        for url in targets:
            assert db.forward(url) == reference.forward(url)
            assert sorted(db.backward(url)) == sorted(reference.backward(url))
            assert db.out_degree(url) == reference.out_degree(url)
            assert db.in_degree(url) == reference.in_degree(url)
        assert db.edge_count() == reference.edge_count()
        assert db.reachable_from(["http://a.example/"]) == reference.reachable_from(
            ["http://a.example/"]
        )

    def test_unknown_url_empty(self, store):
        db = StoreLinkDB(store)
        assert db.forward("http://never.example/") == ()
        assert db.backward("http://never.example/") == ()
        assert db.out_degree("http://never.example/") == 0
