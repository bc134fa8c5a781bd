"""Checkpoint format version 5 against hostile bytes.

A checkpoint is read back from disk — an eviction spool, a periodic
checkpoint, a file handed to ``--resume`` — so its bytes cross a trust
boundary.  Every byte of a version-5 file belongs to the header or to one
checksummed column, so one flipped bit anywhere, or a cut at any byte, is
a :class:`~repro.errors.CheckpointError` that says where: ``header`` or
the section and column.  Plus the round trips the binary layout must
keep: any URL string, and integer columns at the edges of each width.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import CrawlRequest, CrawlSession, SessionConfig
from repro.charset.languages import Language
from repro.core.checkpoint import CheckpointState, read_checkpoint, write_checkpoint
from repro.core.classifier import Classifier
from repro.core.politeness import HostQueues
from repro.core.strategies import BreadthFirstStrategy
from repro.errors import CheckpointError
from repro.experiments.golden import golden_dataset
from repro.serve import SessionManager

from conftest import (
    CHECKPOINT_MAGIC,
    SEED,
    V4_CHECKPOINT_DIR,
    checkpoint_columns,
    checkpoint_layout,
    plain_columns,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Two real version-5 files between them holding every kind of
    section: in-flight events and a clock (K=3), and the host-queue
    frontier's ``sizes`` column."""
    directory = tmp_path_factory.mktemp("v5")
    dataset = golden_dataset()
    written = {}
    for name, strategy, config in (
        ("k3", "soft-focused", SessionConfig(concurrency=3)),
        ("polite", "breadth-first", SessionConfig(frontier=HostQueues())),
    ):
        session = CrawlSession(CrawlRequest(strategy=strategy, dataset=dataset), config).open()
        session.step(200)
        path = directory / f"{name}.ckpt"
        session.save_checkpoint(path)
        session.close()
        written[name] = path.read_bytes()
    return written


def _regions(data: bytes) -> list[tuple[str, int, int]]:
    """``(name, first byte, end byte)`` of every part of a version-5 file:
    the four header parts, then each column under its key."""
    header, data_start = checkpoint_layout(data)
    regions = [("magic", 0, 8), ("header_len", 8, 16), ("header_crc", 16, 20)]
    regions.append(("header", 20, data_start))
    for key, (first, end) in sorted(checkpoint_columns(data).items(), key=lambda item: item[1]):
        if end > first:
            regions.append((key, first, end))
    return regions


def _named(message: str, region: str) -> bool:
    """Does an error message name the part of the file it is about?"""
    if "." not in region:  # magic, header_len, header_crc, header
        return "header" in message
    section, _, column = region.partition(".")
    return f"{section!r} section, column {column!r}" in message


def _read(tmp_path, data: bytes) -> CheckpointError:
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(data)
    with pytest.raises(CheckpointError) as caught:
        read_checkpoint(path)
    assert str(path) in str(caught.value)
    return caught.value


class TestEveryByteIsChecked:
    def test_the_columns_and_header_tile_the_file(self, files):
        for data in files.values():
            assert data[:8] == CHECKPOINT_MAGIC
            regions = _regions(data)
            assert [first for _, first, _ in regions[1:]] == [end for _, _, end in regions[:-1]]
            assert regions[-1][2] == len(data)
        keys = {key for data in files.values() for key, *_ in _regions(data)}
        assert {"urls.offsets", "urls.arena", "frontier.neg_priority", "frontier.sizes"} <= keys

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_flipped_bit_anywhere_is_a_named_error(self, files, tmp_path_factory, data):
        raw = files[data.draw(st.sampled_from(sorted(files)), label="file")]
        region, first, end = data.draw(st.sampled_from(_regions(raw)), label="region")
        at = data.draw(st.integers(min_value=first, max_value=end - 1), label="offset")
        bit = data.draw(st.integers(min_value=0, max_value=7), label="bit")
        flipped = bytearray(raw)
        flipped[at] ^= 1 << bit
        error = _read(tmp_path_factory.mktemp("flip"), bytes(flipped))
        assert _named(str(error), region), (region, str(error))

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_cut_at_any_byte_is_a_named_error(self, files, tmp_path_factory, data):
        raw = files[data.draw(st.sampled_from(sorted(files)), label="file")]
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1), label="cut")
        error = str(_read(tmp_path_factory.mktemp("cut"), raw[:cut]))
        if cut == 0:
            assert "empty checkpoint file" in error
            return
        region = next(name for name, _, end in _regions(raw) if end > cut)
        assert _named(error, region), (cut, region, error)
        assert "truncated" in error or "malformed checkpoint header" in error

    def test_bytes_past_the_last_column_are_an_error(self, files, tmp_path):
        error = _read(tmp_path, files["k3"] + b"\0")
        assert "checkpoint header: 1 bytes past the last column" in str(error)


def _state(urls: list[str], columns: dict | None = None) -> CheckpointState:
    frontier = {"kind": "fifo", "pushes": 0, "pops": 0, "peak_size": 0}
    frontier.update(columns or {"u": [], "p": [], "d": [], "r": []})
    return CheckpointState(
        strategy="breadth-first",
        steps=0,
        urls=urls,
        scheduled=len(urls),
        frontier=frontier,
        recorder={},
        visitor={},
        loop={},
    )


class TestRoundTrips:
    @pytest.mark.parametrize(
        "urls",
        [
            [],
            [""],
            ["", "", "http://a.example/"],
            ["\n", "a\nb", "\n\n", ""],
            ["http://ไทย.example/หน้า", "http://a.example/", "日本語", ""],
            ["\ud800", "x\udfff", "\u0000", "€"],
        ],
    )
    def test_url_tables_round_trip(self, tmp_path, urls):
        path = tmp_path / "urls.ckpt"
        write_checkpoint(path, _state(urls))
        assert read_checkpoint(path).urls == urls

    @given(urls=st.lists(st.text(), max_size=12))
    @settings(max_examples=100, deadline=None)
    def test_any_text_round_trips(self, tmp_path_factory, urls):
        path = tmp_path_factory.mktemp("text") / "urls.ckpt"
        write_checkpoint(path, _state(urls))
        assert read_checkpoint(path).urls == urls

    @pytest.mark.parametrize(
        "low, high, dtype",
        [
            (0, 0, "<i1"),
            (-(2**7), 2**7 - 1, "<i1"),
            (-(2**7) - 1, 0, "<i2"),
            (0, 2**7, "<i2"),
            (-(2**15), 2**15 - 1, "<i2"),
            (-(2**15) - 1, 0, "<i4"),
            (0, 2**15, "<i4"),
            (-(2**31), 2**31 - 1, "<i4"),
            (-(2**31) - 1, 0, "<i8"),
            (0, 2**31, "<i8"),
            (-(2**63), 2**63 - 1, "<i8"),
        ],
    )
    def test_columns_narrow_at_each_width_boundary(self, tmp_path, low, high, dtype):
        column = [low, high, 0, low]
        columns = {"u": [0] * 4, "p": column, "d": [0] * 4, "r": [-1] * 4}
        path = tmp_path / "narrow.ckpt"
        write_checkpoint(path, _state(["http://a.example/"], columns))
        header, _ = checkpoint_layout(path.read_bytes())
        assert header["columns"]["frontier.p"]["dtype"] == dtype
        assert header["columns"]["frontier.r"]["dtype"] == "<i1"
        loaded = read_checkpoint(path).frontier
        assert loaded["p"].dtype == dtype and loaded["p"].tolist() == column


class TestUpgrade:
    @pytest.mark.parametrize(
        "path", sorted(V4_CHECKPOINT_DIR.glob("*.ckpt")), ids=lambda path: path.name
    )
    def test_a_recorded_v4_file_rewritten_as_v5_reads_back_equal(self, path, tmp_path):
        """Every section of a real version-4 file — frontier columns of
        each frontier class, in-flight events, fault, adversary and
        defense state — survives the version-5 container unchanged."""
        recorded = read_checkpoint(path)
        write_checkpoint(tmp_path / "v5.ckpt", recorded)
        rewritten = read_checkpoint(tmp_path / "v5.ckpt")
        rewritten.frontier = plain_columns(rewritten.frontier)
        assert dataclasses.asdict(rewritten) == dataclasses.asdict(recorded)


class TestEvictionSpool:
    def test_a_bit_flipped_spool_is_kept_after_the_failed_resume(self, tiny_web, tmp_path):
        manager = SessionManager(spool_dir=tmp_path)
        request = CrawlRequest(
            strategy=BreadthFirstStrategy(),
            web=tiny_web,
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
        )
        manager.open("s", request, SessionConfig(sample_interval=1))
        manager.step("s", 1)
        manager.evict("s")
        spool = tmp_path / "s.evict.ckpt"
        good = spool.read_bytes()
        first, _end = checkpoint_columns(good)["urls.arena"]
        flipped = bytearray(good)
        flipped[first] ^= 0x10
        spool.write_bytes(bytes(flipped))
        arena_fails = "'urls' section, column 'arena': fails its checksum"
        with pytest.raises(CheckpointError, match=arena_fails):
            manager.step("s", 1)
        assert spool.read_bytes() == bytes(flipped), "the only copy must survive a failed resume"
        spool.write_bytes(good)
        assert manager.step("s", 1).steps == 2
        assert not spool.exists()
