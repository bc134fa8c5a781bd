"""``PageStore.id_of`` against the lookup it replaced.

The store finds a URL's id by a binary search over its sorted hash
column and a byte compare in the arena.  It reads the columns through
memoryviews; the reference below is the same search written with numpy
scalars (``np.searchsorted`` and indexing), as the store first had it.
Both must give the same answer — an id, or None — for every URL a store
holds, for strings it does not hold, for an empty store, and for a store
in which two rows share a hash, where only the byte compare tells the
URLs apart.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pytest

from repro.errors import CrawlLogError
from repro.experiments.datasets import build_dataset_store
from repro.graphgen.profiles import thai_profile
from repro.webspace.store import PageStore, write_store

from conftest import V1_STORE_FIXTURE, poke_store


def reference_id_of(store: PageStore, url: str) -> int | None:
    """The lookup as written over numpy scalars: the reference."""
    store._check_open()
    if store.url_count == 0:
        return None
    encoded = url.encode("utf-8")
    digest = hashlib.blake2b(encoded, digest_size=8).digest()
    target = np.uint64(int.from_bytes(digest, "little"))
    index = int(np.searchsorted(store._url_hash, target, side="left"))
    offsets = store._url_offsets
    while index < store.url_count and store._url_hash[index] == target:
        uid = int(store._url_hash_order[index])
        low, high = int(offsets[uid]), int(offsets[uid + 1])
        if high - low == len(encoded) and (
            os.pread(store._fd, high - low, store._url_arena_start + low) == encoded
        ):
            return uid
        index += 1
    return None


def stored_urls(store: PageStore) -> list[str]:
    return [store.url_of(uid) for uid in range(store.url_count)]


def assert_same_answers(store: PageStore, urls: list[str]) -> None:
    for url in urls:
        found = store.id_of(url)
        assert found == reference_id_of(store, url), url
        assert found is None or type(found) is int


@pytest.fixture(scope="module")
def v2_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("id_of") / "small.lswc"
    build_dataset_store(thai_profile().scaled(0.01), path, capture_kind="none")
    return path


@pytest.fixture(params=["v1-fixture", "v2-build"])
def store_path(request, v2_path):
    return V1_STORE_FIXTURE if request.param == "v1-fixture" else v2_path


class TestSameAnswersAsTheReference:
    def test_every_stored_url(self, store_path):
        with PageStore.open(store_path) as store:
            urls = stored_urls(store)
            assert len(urls) > 100
            assert_same_answers(store, urls)
            assert [store.id_of(url) for url in urls] == list(range(store.url_count))

    def test_absent_strings_and_one_byte_off(self, store_path):
        with PageStore.open(store_path) as store:
            urls = stored_urls(store)[:: max(1, store.url_count // 200)]
            near = [variant for url in urls for variant in (url + "/", url + "x", url[:-1])]
            absent = ["", "http://absent.example/", "http://ไทย.example/หน้า", "é"]
            assert_same_answers(store, near + absent)
            assert all(store.id_of(url) is None for url in absent)

    def test_a_duplicated_hash_is_told_apart_by_its_bytes(self, store_path, tmp_path):
        """Row 0 is given row 1's hash: the search lands on row 0 for
        row 1's URL, whose bytes differ, and must go on to row 1."""
        data = store_path.read_bytes()
        with PageStore.open(store_path) as store:
            second = store._url_hash[1].item()
            first_url = store.url_of(store._url_hash_order[0].item())
            second_url = store.url_of(store._url_hash_order[1].item())
        poked = tmp_path / "duplicated.lswc"
        poked.write_bytes(poke_store(data, "url_hash", 0, second))
        with PageStore.open(poked) as store:
            assert store._url_hash[0] == store._url_hash[1]
            assert_same_answers(store, [first_url, second_url])
            assert store.url_of(store.id_of(second_url)) == second_url
            assert store.id_of(first_url) is None  # its hash is gone from the column
            assert_same_answers(store, stored_urls(store))


def test_an_empty_store_finds_nothing(tmp_path):
    path = tmp_path / "empty.lswc"
    empty = np.zeros(0, dtype=np.int64)
    write_store(
        path, status=empty, ctype=empty, charset=empty, lang=empty, size=empty,
        link_offsets=np.zeros(1, dtype=np.int64), link_arena=empty,
        url_offsets=np.zeros(1, dtype=np.int64), url_arena=b"",
        content_types=[], charsets=[], languages=[],
    )
    with PageStore.open(path) as store:
        assert store.url_count == 0
        assert_same_answers(store, ["", "http://a.example/"])
        assert store.id_of("http://a.example/") is None


def test_a_closed_store_refuses_the_lookup(v2_path):
    store = PageStore.open(v2_path)
    url = store.url_of(0)
    store.close()
    with pytest.raises(CrawlLogError, match="page store is closed"):
        store.id_of(url)
