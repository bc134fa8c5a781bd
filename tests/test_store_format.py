"""The page-store file format: section widths, checksums, the header's
shape, the index columns' ranges, and format v1 read from a real v1 file.

A store is input from outside the program: every damaged or crafted file
is a :class:`~repro.errors.CrawlLogError` at open that names the file and
the field or section, never a raw exception or a page read as another.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import V1_STORE_FIXTURE, poke_store, reseal_store, store_sections
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import CrawlLogError
from repro.experiments.datasets import build_dataset_store
from repro.experiments.golden import GOLDEN_SCALE
from repro.experiments.tournament import cued_thai_profile
from repro.graphgen.profiles import thai_profile
from repro.webspace.store import PageStore, narrowest_int

INDEX_SECTIONS = (
    "status", "ctype", "charset", "lang", "size", "link_offsets", "url_offsets",
    "url_hash", "url_hash_order",
)


@pytest.fixture(scope="module")
def v2_golden(tmp_path_factory):
    """A fresh (v2) build of the web the v1 fixture holds."""
    path = tmp_path_factory.mktemp("v2") / "golden.lswc"
    build_dataset_store(thai_profile().scaled(GOLDEN_SCALE), path)
    return path


@pytest.fixture(scope="module")
def cued_bytes(tmp_path_factory):
    """A small v2 store with every optional section (the cue column)."""
    path = tmp_path_factory.mktemp("cued") / "cued.lswc"
    build_dataset_store(cued_thai_profile(0.01), path, capture_kind="none")
    return path.read_bytes()


class TestWidths:
    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([], "<i1"),
            ([-128, 127], "<i1"),
            ([-129], "<i2"),
            ([128], "<i2"),
            ([-1, 32_767], "<i2"),
            ([32_768], "<i4"),
            ([-(2**31), 2**31 - 1], "<i4"),
            ([2**31], "<i8"),
            ([-(2**31) - 1], "<i8"),
        ],
    )
    def test_the_narrowest_width_that_holds_the_column(self, values, dtype):
        column = np.array(values, dtype=np.int64)
        assert narrowest_int(column) == dtype
        assert column.astype(dtype).tolist() == values

    def test_a_real_build_records_each_sections_width(self, v2_golden):
        """1 654 pages and 1 678 URLs: every id fits int16, a size int32."""
        with PageStore.open(v2_golden) as store:
            dtypes = {name: spec["dtype"] for name, spec in store.header["sections"].items()}
            assert dtypes == {
                "status": "<i2", "ctype": "<i1", "charset": "<i1", "lang": "<i1",
                "size": "<i4", "link_offsets": "<i2", "link_arena": "<i2",
                "url_offsets": "<i4", "url_arena": "|u1", "url_hash": "<u8",
                "url_hash_order": "<i2",
            }
            links = np.concatenate([store.outlink_ids(page) for page in range(store.page_count)])
            for name in INDEX_SECTIONS:
                if name != "url_hash":
                    assert narrowest_int(getattr(store, f"_{name}")) == dtypes[name], name
            assert narrowest_int(links) == dtypes["link_arena"]


class TestV1Fixture:
    def test_the_fixture_is_the_file_its_manifest_names(self):
        manifest = json.loads((V1_STORE_FIXTURE.parent / "MANIFEST.json").read_text())
        (entry,) = [entry for entry in manifest["fixtures"] if entry["format_version"] == 1]
        data = V1_STORE_FIXTURE.read_bytes()
        assert entry["file"] == V1_STORE_FIXTURE.name and data[:8] == b"LSWCPGS1"
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (entry["sha256"], entry["bytes"])

    def test_v1_reads_as_a_fresh_v2_build_field_for_field(self, v2_golden):
        assert v2_golden.read_bytes()[:8] == b"LSWCPGS2"
        with PageStore.open(V1_STORE_FIXTURE) as old, PageStore.open(v2_golden) as new:
            assert (old.page_count, old.url_count, old.link_count) == (
                new.page_count, new.url_count, new.link_count,
            )
            assert old.meta == new.meta
            assert list(old) == list(new)
            for page in range(new.page_count):
                assert old.fetch_record(new.url_of(page)) == new.fetch_record(new.url_of(page))
            urls = [new.url_of(uid) for uid in range(new.url_count)]
            assert [old.url_of(uid) for uid in range(old.url_count)] == urls
            assert [old.id_of(url) for url in urls] == list(range(new.url_count))
            assert old.id_of("http://never.example/") is None


def _open_crafted(data: bytes, tmp_path: Path) -> None:
    crafted = tmp_path / "crafted.lswc"
    crafted.write_bytes(data)
    PageStore(crafted).close()


def _header_cases():
    def drop(*keys):
        def edit(header):
            target = header
            for key in keys[:-1]:
                target = target[key]
            del target[keys[-1]]
        return edit

    def put(value, *keys):
        def edit(header):
            target = header
            for key in keys[:-1]:
                target = target[key]
            target[keys[-1]] = value(target[keys[-1]]) if callable(value) else value
        return edit

    def fewer_urls(header):
        """URL counts one below the page count, every section consistent with them."""
        header["urls"] = urls = header["pages"] - 1
        for name, count in (("url_offsets", urls + 1), ("url_hash", urls), ("url_hash_order", urls)):
            header["sections"][name]["count"] = count

    def rename_size(header):
        header["sections"]["junk"] = header["sections"].pop("size")

    return {
        "no url_hash section": (drop("sections", "url_hash"), r"sections\.url_hash: missing"),
        "no page count": (drop("pages"), r"pages: None is not a count"),
        "bad dtype": (put("<zz", "sections", "status", "dtype"), r"sections\.status\.dtype: '<zz'"),
        "arena dtype": (put("<i8", "sections", "url_hash", "dtype"), r"sections\.url_hash\.dtype"),
        "negative count": (put(-5, "sections", "status", "count"), r"sections\.status\.count: -5"),
        "short count": (put(10, "sections", "status", "count"), r"sections\.status\.count: 10, "),
        "five more pages": (put(lambda n: n + 5, "pages"), r"sections\.status\.count: "),
        "string count": (put("7", "links"), r"links: '7' is not a count"),
        "bool offset": (put(True, "sections", "lang", "offset"), r"sections\.lang\.offset"),
        "more pages than urls": (fewer_urls, r"urls: 1653 is fewer than the 1654 pages"),
        "unknown language": (put(["klingon"], "languages"), r"languages: unknown label 'klingon'"),
        "table of numbers": (put([1], "charsets"), r"charsets: not a list of strings"),
        "unknown section": (rename_size, r"sections\.junk: not a page-store section"),
        "section not an object": (put([], "sections", "size"), r"sections\.size: not a JSON"),
        "sections not an object": (put([], "sections"), r"sections: not a JSON object"),
        "meta not an object": (put(3, "meta"), r"meta: not a JSON object"),
    }


HEADER_CASES = _header_cases()


class TestHeaderShape:
    """Each used to escape as a raw KeyError / TypeError or open wrong."""

    @pytest.mark.parametrize("case", sorted(HEADER_CASES))
    @pytest.mark.parametrize("version", [1, 2])
    def test_a_malformed_header_is_a_named_error(self, v2_golden, tmp_path, version, case):
        edit, message = HEADER_CASES[case]
        data = (V1_STORE_FIXTURE if version == 1 else v2_golden).read_bytes()
        with pytest.raises(CrawlLogError, match=rf"crafted\.lswc: store header field {message}"):
            _open_crafted(reseal_store(data, edit), tmp_path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_a_header_that_is_not_an_object_is_a_named_error(self, v2_golden, tmp_path, version):
        data = (V1_STORE_FIXTURE if version == 1 else v2_golden).read_bytes()
        start = 16 if version == 1 else 20
        length = int.from_bytes(data[8:16], "little")
        crafted = bytearray(data)
        crafted[start : start + length] = b"[]".ljust(length)
        if version == 2:
            crafted[16:20] = zlib.crc32(b"[]".ljust(length)).to_bytes(4, "little")
        with pytest.raises(CrawlLogError, match=r"crafted\.lswc: store header field \(root\)"):
            _open_crafted(bytes(crafted), tmp_path)

    def test_the_cue_section_stays_optional(self, cued_bytes, tmp_path):
        crafted = reseal_store(cued_bytes, lambda header: header["sections"].pop("link_cues"))
        (tmp_path / "crafted.lswc").write_bytes(crafted)
        with PageStore(tmp_path / "crafted.lswc") as store:
            assert store.link_cue_row(0) is None


class TestColumnRanges:
    """Values a crafted file passes its checksums with, that used to read
    as another value (or escape as a raw IndexError / OSError)."""

    CASES = {
        "ctype below": ("ctype", 0, -1, r"section ctype: index 0 holds -1, outside \[0, "),
        "ctype above": ("ctype", 0, 99, r"section ctype: index 0 holds 99, outside \[0, "),
        "lang below": ("lang", 0, -1, r"section lang: index 0 holds -1, outside \[0, "),
        "charset below": ("charset", 0, -2, r"section charset: index 0 holds -2, outside \[-1, "),
        "link offset falls": ("link_offsets", 1, -3, r"section link_offsets: index 1 holds -3"),
        "link offsets start": ("link_offsets", 0, 1, r"section link_offsets: index 0 .*0 must start"),
        "url offset falls": ("url_offsets", 2, 0, r"section url_offsets: index 2 holds 0, below"),
        "url hash unsorted": ("url_hash", 1, 0, r"section url_hash: index 1 holds 0, below"),
        "hash order range": ("url_hash_order", 3, -1, r"section url_hash_order: index 3 holds -1"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("version", [1, 2])
    def test_an_out_of_range_value_is_a_named_error(self, v2_golden, tmp_path, version, case):
        section, index, value, message = self.CASES[case]
        data = (V1_STORE_FIXTURE if version == 1 else v2_golden).read_bytes()
        with pytest.raises(CrawlLogError, match=rf"crafted\.lswc: {message}"):
            _open_crafted(poke_store(data, section, index, value), tmp_path)

    @pytest.mark.parametrize("section", ["link_offsets", "url_offsets"])
    def test_offsets_end_at_their_arena(self, v2_golden, tmp_path, section):
        data = v2_golden.read_bytes()
        with PageStore.open(v2_golden) as store:
            column = getattr(store, f"_{section}")
            last, end = len(column) - 1, int(column[-1])
        with pytest.raises(CrawlLogError, match=rf"section {section}: index {last} .*{end} must end"):
            _open_crafted(poke_store(data, section, last, end + 1), tmp_path)


def _regions(data: bytes) -> dict[str, tuple[int, int]]:
    """The byte ranges a flipped bit must be named by: the header (its
    length field, its checksum and its JSON) and every non-empty section."""
    spans = {name: span for name, span in store_sections(data).items() if span[1] > span[0]}
    header_len = int.from_bytes(data[8:16], "little")
    return {"header": (8, 20 + header_len), **spans}


class TestDamage:
    """ROADMAP 6(b), the store half: one flipped bit anywhere that matters
    is a CrawlLogError at open, named by where it landed."""

    def test_every_section_is_covered(self, cued_bytes):
        assert set(_regions(cued_bytes)) == {"header", *INDEX_SECTIONS, "link_arena",
                                             "url_arena", "link_cues"}

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_one_flipped_bit_fails_the_open_by_name(self, cued_bytes, data):
        regions = _regions(cued_bytes)
        name = data.draw(st.sampled_from(sorted(regions)), label="region")
        first, end = regions[name]
        offset = data.draw(st.integers(first, end - 1), label="offset")
        bit = data.draw(st.integers(0, 7), label="bit")
        damaged = bytearray(cued_bytes)
        damaged[offset] ^= 1 << bit
        named = "header" if name == "header" else rf"section {name} fails its checksum"
        with tempfile.TemporaryDirectory() as scratch:
            with pytest.raises(CrawlLogError, match=named):
                _open_crafted(bytes(damaged), Path(scratch))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_cut_file_gets_the_truncation_message_first(self, cued_bytes, data):
        """However the bytes before the cut are damaged."""
        spans = store_sections(cued_bytes)
        data_start = min(first for first, _ in spans.values())
        cut = data.draw(st.integers(data_start, len(cued_bytes) - 1), label="cut")
        flip = data.draw(st.integers(data_start, cut - 1), label="flip") if cut > data_start else None
        damaged = bytearray(cued_bytes[:cut])
        if flip is not None:
            damaged[flip] ^= 1
        first_cut = next(name for name, (_, end) in spans.items() if end > cut)
        with tempfile.TemporaryDirectory() as scratch:
            with pytest.raises(CrawlLogError, match=rf"truncated .*section {first_cut} ends at"):
                _open_crafted(bytes(damaged), Path(scratch))

    @pytest.mark.parametrize("keep", [4, 12, 19, 40])
    def test_a_file_cut_inside_its_header_is_truncated(self, cued_bytes, tmp_path, keep):
        with pytest.raises(CrawlLogError, match="truncated page store: header ends at byte"):
            _open_crafted(cued_bytes[: 8 + keep], tmp_path)

    def test_an_intact_v2_store_opens_and_reads(self, cued_bytes, tmp_path):
        (tmp_path / "intact.lswc").write_bytes(cued_bytes)
        with PageStore(tmp_path / "intact.lswc") as store:
            assert len(list(store)) == store.page_count
