"""The page-store build: pinned bytes, the URL table and hash index it
writes, and what an out-of-range page id or a cut file does.

The digests below are of format-v2 builds: every integer section in
the narrowest width that holds it, every section checksummed.  They pin
the generator; the goldens crawl the checked-in stores under
``tests/golden/fixtures/stores/`` and so pin only the engine.  Each of
those files is checked against its MANIFEST entry here.  The v1 bytes of
the golden default-capture build are kept there as a real file,
``thai-golden.v1.lswc`` (its MANIFEST entry holds the old pin), which
``tests/test_store_format.py`` opens.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import numpy as np
import pytest
from conftest import STORE_FIXTURE_DIR

from repro.errors import CrawlLogError, UnknownPageError
from repro.experiments.datasets import build_dataset_store
from repro.experiments.golden import GOLDEN_SCALE
from repro.experiments.tournament import cued_thai_profile
from repro.graphgen.generator import generate_columns, generate_universe
from repro.graphgen.hosts import build_hosts
from repro.graphgen.profiles import thai_profile
from repro.webspace.store import PageStore, hash_url

PINNED = {
    "thai-0.05-none": (
        lambda: thai_profile().scaled(0.05),
        "none",
        "2e64a7e8de5e9901f6b1c30219725f21deaff35b475fdf9344b61c69396589d0",
        432_240,
    ),
    "cued-thai-0.05-none": (
        lambda: cued_thai_profile(0.05),
        "none",
        "185165a29c4cc57def3862df1cd016a9d771a365f27580cf476262a0cf02cae9",
        459_595,
    ),
    "thai-golden-default-capture": (
        lambda: thai_profile().scaled(GOLDEN_SCALE),
        None,
        "1a6081d4f2d9d7113856ae6613ad1b2700321f5226f98084429037c784c01864",
        109_596,
    ),
    "cued-thai-golden-default-capture": (
        lambda: cued_thai_profile(GOLDEN_SCALE),
        None,
        "ea2e08e03da9dde9eafb074207c90f60045cdb7180e2bd590251f34ba74d9c5a",
        118_151,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_a_build_writes_the_pinned_bytes(name, tmp_path):
    make_profile, capture_kind, sha256, size = PINNED[name]
    path = build_dataset_store(make_profile(), tmp_path / "s.lswc", capture_kind=capture_kind)
    data = path.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)


STORE_MANIFEST = json.loads((STORE_FIXTURE_DIR / "MANIFEST.json").read_text())["fixtures"]


def test_the_manifest_lists_exactly_the_store_fixtures():
    on_disk = sorted(path.name for path in STORE_FIXTURE_DIR.glob("*.lswc"))
    assert on_disk == sorted(entry["file"] for entry in STORE_MANIFEST)


@pytest.mark.parametrize("entry", STORE_MANIFEST, ids=lambda entry: entry["file"])
def test_each_store_fixture_is_the_file_its_manifest_names(entry):
    data = (STORE_FIXTURE_DIR / entry["file"]).read_bytes()
    assert data[:8] == entry["magic"].encode("ascii")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (entry["sha256"], entry["bytes"])


@pytest.fixture(scope="module")
def small_store(tmp_path_factory):
    profile = thai_profile().scaled(0.01)
    path = tmp_path_factory.mktemp("build") / "small.lswc"
    build_dataset_store(profile, path, capture_kind="none")
    return profile, path


def test_the_hash_column_is_sorted_and_points_at_its_urls(small_store):
    _, path = small_store
    with PageStore.open(path) as store:
        hashes = store._url_hash
        assert len(hashes) == store.url_count
        assert np.all(hashes[:-1] <= hashes[1:])
        order = store._url_hash_order
        assert sorted(order.tolist()) == list(range(store.url_count))
        for value, uid in zip(hashes.tolist(), order.tolist()):
            assert value == hash_url(store.url_of(uid))


def _crowded_thai():
    """Half as many hosts as pages: most hosts hold a single page."""
    profile = thai_profile().scaled(0.05)
    return replace(profile, n_hosts=profile.n_pages // 2)


@pytest.mark.parametrize("make_profile", [lambda: thai_profile().scaled(0.05), _crowded_thai])
def test_page_urls_is_page_url_at_every_offset(make_profile):
    profile = make_profile()
    hosts = build_hosts(profile, np.random.default_rng(profile.seed))
    if make_profile is _crowded_thai:
        assert sum(host.n_pages == 1 for host in hosts) > len(hosts) // 2
    for host in hosts:
        assert host.page_urls() == [host.page_url(offset) for offset in range(host.n_pages)]


def test_the_eager_url_table_is_the_stores(small_store):
    profile, path = small_store
    eager = [record.url for record in generate_universe(profile).crawl_log]
    with PageStore.open(path) as store:
        assert list(store.urls()) == eager


class TestOutOfRangePageIds:
    @pytest.fixture(scope="class")
    def columns(self):
        return generate_columns(thai_profile().scaled(0.01))

    def test_every_page_id_in_range_has_its_url(self, columns):
        n_pages = columns.n_pages
        assert columns.url_for(0) == columns.hosts[0].page_url(0)
        last = columns.hosts[-1]
        assert columns.url_for(n_pages - 1) == last.page_url(last.n_pages - 1)

    @pytest.mark.parametrize("delta", [0, 1, 1000])
    def test_past_the_last_page_is_unknown(self, columns, delta):
        page = columns.n_pages + delta
        with pytest.raises(UnknownPageError, match=rf"page id {page} out of range"):
            columns.url_for(page)

    @pytest.mark.parametrize("page", [-1, -2, -10**6])
    def test_a_negative_page_id_is_unknown(self, columns, page):
        with pytest.raises(UnknownPageError, match=rf"page id {page} out of range"):
            columns.url_for(page)

    @pytest.mark.parametrize("which", ["below", "above"])
    def test_a_host_offset_outside_the_host_is_unknown(self, columns, which):
        host = columns.hosts[0]
        offset = -1 if which == "below" else host.n_pages
        with pytest.raises(UnknownPageError, match=rf"{host.name} page offset {offset} out"):
            host.page_url(offset)


class TestTruncatedStore:
    @pytest.fixture(scope="class")
    def layout(self, small_store):
        """``(path, {section: (first byte, end byte)})`` of the small store."""
        _, path = small_store
        with PageStore.open(path) as store:
            sizes = store.section_sizes()
            data_start = store._url_arena_start - store.header["sections"]["url_arena"]["offset"]
            spans = {
                name: (data_start + spec["offset"], data_start + spec["offset"] + sizes[name])
                for name, spec in store.header["sections"].items()
            }
        return path, spans

    def test_an_intact_store_ends_at_its_last_section(self, layout):
        path, spans = layout
        assert max(end for _, end in spans.values()) == os.path.getsize(path)

    @pytest.mark.parametrize(
        "section",
        [
            "status", "ctype", "charset", "lang", "size", "link_offsets", "link_arena",
            "url_offsets", "url_arena", "url_hash", "url_hash_order",
        ],
    )
    def test_a_cut_inside_a_section_fails_the_open(self, layout, tmp_path, section):
        path, spans = layout
        start, end = spans[section]
        assert end - start >= 2
        cut = tmp_path / "cut.lswc"
        cut.write_bytes(path.read_bytes()[: (start + end) // 2])
        with pytest.raises(CrawlLogError, match=rf"cut\.lswc: truncated .*section {section} "):
            PageStore(cut)

    def test_a_cut_inside_the_cue_section_fails_the_open(self, tmp_path):
        path = build_dataset_store(
            cued_thai_profile(0.01), tmp_path / "cued.lswc", capture_kind="none"
        )
        with PageStore.open(path) as store:
            start = store._link_cues_start
        os.truncate(path, start + 1)
        with pytest.raises(CrawlLogError, match=r"section link_cues ends at byte"):
            PageStore(path)
