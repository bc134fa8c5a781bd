"""Shared fixtures: hand-built miniature webs and small generated datasets.

``tiny_web`` is a fully hand-specified crawl log whose structure makes
strategy behaviour exactly predictable — each test can reason about which
pages are reachable under which strategy.  The generated fixtures are
session-scoped because dataset construction is the expensive part of the
suite.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.charset.languages import Language
from repro.core.candidate import Candidate, LinkRun
from repro.experiments.datasets import build_dataset
from repro.faults import FaultModel, FaultProfile, ResilienceConfig
from repro.graphgen.profiles import japanese_profile, thai_profile
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.store import narrowest_int
from repro.webspace.virtualweb import VirtualWebSpace

@pytest.fixture(scope="session", autouse=True)
def dataset_cache_in_tmp(tmp_path_factory):
    """Point the dataset disk cache (``REPRO_LSWC_CACHE``) into this test
    run's temp dir, unless the caller set it: a sweep or CLI test that
    builds through ``load_or_build_dataset(cache_dir="default")`` — in
    process or in a subprocess, which inherits the environment — then
    writes nothing outside the checkout and the temp dir."""
    if os.environ.get("REPRO_LSWC_CACHE"):
        yield
        return
    os.environ["REPRO_LSWC_CACHE"] = str(tmp_path_factory.mktemp("lswc-cache"))
    try:
        yield
    finally:
        del os.environ["REPRO_LSWC_CACHE"]


#: Scale used for the session's generated datasets — big enough for the
#: statistical shape assertions, small enough to keep the suite fast.
TEST_SCALE = 0.08


#: Checkpoints written by the last commit whose writer produced format
#: version 3 (see the MANIFEST there): real legacy files, not current
#: files with an edited header.
LEGACY_CHECKPOINT_DIR = Path(__file__).parent / "golden" / "fixtures" / "checkpoints"


def legacy_checkpoint(name: str, version: int, tmp_path: Path) -> Path:
    """The recorded v3 checkpoint ``name``, or its v1 / v2 form.

    Versions 1 and 2 are version 3 minus the sections (and the two
    ``loop`` tallies) added since, so for a fixture that has none of
    those sections the older file is the same bytes under an older
    header — which of them that holds for is the manifest's
    ``also_versions``.
    """
    recorded = LEGACY_CHECKPOINT_DIR / f"{name}.v3.ckpt"
    if version == 3:
        return recorded
    header, *sections = recorded.read_text(encoding="utf-8").splitlines()
    lines = [json.dumps({**json.loads(header), "version": version}, sort_keys=True)]
    for line in sections:
        record = json.loads(line)
        assert record["section"] not in ("adversary", "defenses")
        assert record["section"] != "sched" or version >= 2
        if record["section"] == "loop":
            del record["data"]["redirect_hops"], record["data"]["redirect_aborts"]
            line = json.dumps(record, sort_keys=True)
        lines.append(line)
    path = tmp_path / f"{name}.v{version}.ckpt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


STORE_FIXTURE_DIR = Path(__file__).parent / "golden" / "fixtures" / "stores"

#: The golden web's page store as the last format-v1 writer wrote it (see
#: the MANIFEST there): a real v1 file, not a v2 file with an edited header.
V1_STORE_FIXTURE = STORE_FIXTURE_DIR / "thai-golden.v1.lswc"

#: The golden webs every golden trace crawls, as format-v2 page stores.
GOLDEN_STORE_FIXTURE = STORE_FIXTURE_DIR / "thai-golden.v2.lswc"
CUED_STORE_FIXTURE = STORE_FIXTURE_DIR / "thai-cued-golden.v2.lswc"


def _store_header(data: bytes) -> tuple[dict, int, int]:
    """``(header, header start, header length)`` of a v1 or v2 store file."""
    start = 20 if data[:8] == b"LSWCPGS2" else 16
    length = int.from_bytes(data[8:16], "little")
    return json.loads(data[start : start + length]), start, length


def store_sections(data: bytes) -> dict[str, tuple[int, int]]:
    """Each section's ``(first byte, end byte)`` in a store file's bytes."""
    header, start, length = _store_header(data)
    data_start = (start + length + 63) // 64 * 64
    spans = {}
    for name, spec in header["sections"].items():
        first = data_start + spec["offset"]
        spans[name] = (first, first + spec["count"] * np.dtype(spec["dtype"]).itemsize)
    return spans


def reseal_store(data: bytes, edit=lambda header: None) -> bytes:
    """``data`` with ``edit`` applied to its header and, in a v2 file, every
    section's crc32 and the header's recomputed first: a crafted file that
    passes its checksums.  The new header JSON is padded to the old length,
    so every section stays where it was."""
    header, start, length = _store_header(data)
    if start == 20:
        for name, (first, end) in store_sections(data).items():
            header["sections"][name]["crc32"] = f"{zlib.crc32(data[first:end]):08x}"
    edit(header)
    raw = json.dumps(header, separators=(",", ":")).encode("utf-8")
    assert len(raw) <= length, "the edited header must not outgrow the old one"
    raw = raw.ljust(length)
    out = bytearray(data)
    out[start : start + length] = raw
    if start == 20:
        out[16:20] = zlib.crc32(raw).to_bytes(4, "little")
    return bytes(out)


def poke_store(data: bytes, section: str, index: int, value: int) -> bytes:
    """``data`` with item ``index`` of ``section`` set to ``value`` in the
    section's recorded dtype, resealed (:func:`reseal_store`)."""
    header, _start, _length = _store_header(data)
    dtype = np.dtype(header["sections"][section]["dtype"])
    first, _end = store_sections(data)[section]
    out = bytearray(data)
    at = first + index * dtype.itemsize
    out[at : at + dtype.itemsize] = np.array([value], dtype=dtype).tobytes()
    return reseal_store(bytes(out))


#: Real format-version-4 checkpoints, written by the last commit whose
#: writer produced that version (see the MANIFEST there).
V4_CHECKPOINT_DIR = LEGACY_CHECKPOINT_DIR / "v4"

#: Real format-version-5 checkpoints, written by the last commit whose
#: priority frontier was a binary heap (see the MANIFEST there): its
#: priority rows are in heap layout, not pop order.
V5_CHECKPOINT_DIR = LEGACY_CHECKPOINT_DIR / "v5"

CHECKPOINT_MAGIC = b"LSWCCKP5"

#: A version-5 checkpoint's frontier columns, in the order they are written.
_FRONTIER_COLUMNS = ("u", "p", "d", "r", "neg_priority", "tiebreak", "sizes")


def checkpoint_layout(data: bytes) -> tuple[dict, int]:
    """``(header, data start)`` of a version-5 checkpoint file's bytes,
    read without any check."""
    length = int.from_bytes(data[8:16], "little")
    return json.loads(data[20 : 20 + length]), 20 + length


def checkpoint_columns(data: bytes) -> dict[str, tuple[int, int]]:
    """Each column's ``(first byte, end byte)`` in a version-5 file."""
    header, data_start = checkpoint_layout(data)
    spans = {}
    for key, spec in header["columns"].items():
        first = data_start + spec["offset"]
        spans[key] = (first, first + spec["count"] * np.dtype(spec["dtype"]).itemsize)
    return spans


def _column_array(values: list) -> np.ndarray:
    """A list as the column a writer would make of it: integers in their
    narrowest width, anything else in whatever dtype numpy gives it."""
    array = np.asarray(values) if values else np.zeros(0, dtype=np.int64)
    if array.dtype.kind != "i":
        return array
    return array.astype(narrowest_int(array))


def reseal_checkpoint(path: Path, out: Path, mutate=None, mutate_columns=None) -> Path:
    """A version-5 checkpoint decoded, edited, re-encoded and resealed.

    The file at ``path`` is decoded into the sections the version-4
    layout had — ``urls`` a list of strings, ``scheduled`` a count and
    ``frontier`` one dict holding its columns as lists — and handed to
    ``mutate``.  The edited sections are encoded again as the writer
    would (integer columns narrowed, anything else kept in numpy's own
    dtype), ``mutate_columns`` may then edit the encoded columns
    (``{"urls.arena": array, ...}``), and every offset and crc32 is
    recomputed: a crafted file whose fault is its content, not its
    checksums.  With neither edit the output is byte-equal to the input.
    """
    data = path.read_bytes()
    header, data_start = checkpoint_layout(data)
    sections = {key: value for key, value in header.items() if key != "columns"}
    decoded = {}
    for key, spec in header["columns"].items():
        first = data_start + spec["offset"]
        decoded[key] = np.frombuffer(data, dtype=spec["dtype"], count=spec["count"], offset=first)
    offsets = decoded.pop("urls.offsets").tolist()
    arena = decoded.pop("urls.arena").tobytes()
    sections["urls"] = [
        arena[start:end].decode("utf-8", "surrogatepass")
        for start, end in zip(offsets, offsets[1:])
    ]
    for key, array in decoded.items():
        sections["frontier"][key.removeprefix("frontier.")] = array.tolist()
    if mutate is not None:
        mutate(sections)
    pieces = [url.encode("utf-8", "surrogatepass") for url in sections.pop("urls")]
    columns = {
        "urls.offsets": _column_array(np.cumsum([0, *map(len, pieces)]).tolist()),
        "urls.arena": np.frombuffer(b"".join(pieces), dtype=np.uint8),
    }
    if isinstance(sections["frontier"], dict):
        sections["frontier"] = frontier = dict(sections["frontier"])
        for name in _FRONTIER_COLUMNS:
            if name in frontier:
                columns[f"frontier.{name}"] = _column_array(frontier.pop(name))
    if mutate_columns is not None:
        mutate_columns(columns)
    table, blobs, offset = {}, [], 0
    for key, array in columns.items():
        blob = array.tobytes()
        dtype = "|u1" if key == "urls.arena" else np.dtype(array.dtype).str.replace("|", "<")
        crc = f"{zlib.crc32(blob):08x}"
        table[key] = {"dtype": dtype, "count": len(array), "offset": offset, "crc32": crc}
        blobs.append(blob)
        offset += len(blob)
    raw = json.dumps({**sections, "columns": table}, sort_keys=True, separators=(",", ":")).encode()
    out.write_bytes(
        CHECKPOINT_MAGIC + struct.pack("<QI", len(raw), zlib.crc32(raw)) + raw + b"".join(blobs)
    )
    return out


def plain_columns(state: dict) -> dict:
    """``state`` with each numpy column a list: a frontier snapshot, and a
    version-5 checkpoint's frontier as read, hold their integer columns as
    arrays, and two states are equal when their values are."""
    return {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in state.items()
    }


def frontier_roundtrip(frontier, into=None):
    """``restore(snapshot())`` into a fresh frontier of the same class
    (or ``into``), over a URL table holding just what the snapshot names."""
    index: dict[str, int] = {}
    state = frontier.snapshot(index)
    restored = (into or type(frontier))()
    restored.restore(state, list(index))
    return restored


#: Operations on a frontier: push one candidate, push a run, pop, compare
#: snapshots, or snapshot and restore into a fresh frontier.  URLs are
#: ``(host, id)`` pairs over a few hosts; a run may repeat a URL.
frontier_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"), st.tuples(st.integers(0, 3), st.integers(0, 40)),
            st.integers(-2, 2), st.integers(0, 3), st.booleans(),
        ),
        st.tuples(
            st.just("run"),
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 40)), max_size=7),
            st.integers(-2, 2), st.integers(0, 3), st.booleans(),
        ),
        st.just(("pop",)),
        st.just(("pop",)),
        st.just(("snapshot",)),
        st.just(("roundtrip",)),
    ),
    max_size=60,
)


def _url(host_and_id: tuple[int, int]) -> str:
    host, url_id = host_and_id
    return f"http://h{host}.example/p{url_id}"


def _row(candidate: Candidate) -> tuple:
    """A popped candidate with every field, the url-id hint included."""
    return tuple(candidate)


def assert_runs_push_like_candidates(
    factory, operations, *, unique=False, reference=None, hints=True
):
    """Drive a frontier from ``factory`` and one from ``reference``
    (default: ``factory`` too) through ``operations``: the first takes
    each run with ``push_run``, the second candidate by candidate.

    They must agree after every operation: on what pops (url-id hint
    included), ``pushes``, ``pops``, ``peak_size``, ``len`` and the
    snapshot, also after each is restored from its own into a fresh
    frontier from its factory.  ``unique`` leaves out URLs the queue
    holds (a frontier that queues a URL once); ``hints=False`` compares
    pops without the url-id hint (a spill line over no page source does
    not keep it).
    """
    reference = reference or factory
    width = None if hints else -1
    runs, candidates = factory(), reference()
    queued: set[str] = set()
    referrer = "http://seed.example/"
    for operation in operations:
        kind = operation[0]
        if kind in ("push", "run"):
            _, urls, priority, distance, with_uids = operation
            urls = [_url(urls)] if kind == "push" else list(map(_url, urls))
            if unique:
                urls = [url for url in dict.fromkeys(urls) if url not in queued]
                queued.update(urls)
            uids = [len(url) * 7 + index for index, url in enumerate(urls)] if with_uids else None
            run = LinkRun(urls, priority, distance, referrer, uids)
            if kind == "push":
                for candidate in run:
                    runs.push(candidate)
            else:
                runs.push_run(run)
            for candidate in run:
                candidates.push(candidate)
        elif kind == "pop":
            if not len(candidates):
                continue
            popped = candidates.pop()
            assert _row(runs.pop())[:width] == _row(popped)[:width]
            queued.discard(popped.url)
            referrer = popped.url
        else:
            index_runs: dict[str, int] = {}
            index_candidates: dict[str, int] = {}
            assert plain_columns(runs.snapshot(index_runs)) == plain_columns(
                candidates.snapshot(index_candidates)
            )
            assert list(index_runs) == list(index_candidates)
            if kind == "roundtrip":
                runs = frontier_roundtrip(runs, factory)
                candidates = frontier_roundtrip(candidates, reference)
        assert (runs.pushes, runs.pops, runs.peak_size, len(runs)) == (
            candidates.pushes, candidates.pops, candidates.peak_size, len(candidates)
        )
    while len(candidates):
        assert _row(runs.pop())[:width] == _row(candidates.pop())[:width]
    assert not len(runs)


def thai_page(url: str, outlinks: tuple[str, ...] = (), charset: str = "TIS-620") -> PageRecord:
    return PageRecord(
        url=url,
        charset=charset,
        true_language=Language.THAI,
        outlinks=outlinks,
        size=2048,
    )


def english_page(url: str, outlinks: tuple[str, ...] = ()) -> PageRecord:
    return PageRecord(
        url=url,
        charset="ISO-8859-1",
        true_language=Language.OTHER,
        outlinks=outlinks,
        size=2048,
    )


def faulted_inputs() -> dict:
    """Session keywords of a faulted crawl: failed rounds and requeues,
    slow hosts and per-fetch jitter on the clock."""
    return {
        "faults": FaultModel(
            FaultProfile(
                transient_error_rate=0.15,
                timeout_rate=0.05,
                slow_host_rate=0.2,
                latency_jitter=0.3,
                bandwidth_jitter=0.2,
            ),
            seed=7,
        ),
        "resilience": ResilienceConfig(),
    }


def hostile_defended_inputs() -> dict:
    """Session keywords of a crawl under attack (traps, redirect chains,
    session aliases) with the standard defenses armed."""
    return {
        "adversary": AdversaryModel(
            AdversaryProfile(
                trap_host_rate=0.2,
                trap_fanout=3,
                redirect_rate=0.2,
                redirect_hops=3,
                redirect_loop_rate=0.3,
                alias_host_rate=0.2,
            ),
            seed=9,
        ),
        "defenses": DefenseConfig.standard(),
    }


#: The inputs the engine's cross-policy identities are checked over.
#: Each value builds fresh (stateful) models for one run.
ENGINE_SCENARIOS = {
    "clean": dict,
    "faulted": faulted_inputs,
    "hostile-defended": hostile_defended_inputs,
}


# URL shorthands for the tiny web.
SEED = "http://seed.co.th/"
A = "http://a.co.th/"
B = "http://b.com/"
C = "http://c.co.th/"
D = "http://d.com/"
E = "http://e.com/"
F = "http://f.co.th/"
DEAD = "http://dead.com/gone.html"


@pytest.fixture()
def tiny_pages() -> list[PageRecord]:
    """A 8-URL web exercising every strategy distinction.

    Structure (t = Thai/relevant, e = English/irrelevant)::

        SEED(t) ──> A(t) ──> D(e) ──> E(e) ──> F(t)
             └────> B(e) ──> C(t)
             └────> DEAD (404)

    - C sits behind exactly one irrelevant page (reachable at N >= 1);
    - F sits behind two consecutive irrelevant pages (needs N >= 3 when
      counting D=1, E=2, F=3 from relevant A... see strategy tests);
    - DEAD is a non-OK fetch.
    """
    return [
        thai_page(SEED, outlinks=(A, B, DEAD)),
        thai_page(A, outlinks=(D,)),
        english_page(B, outlinks=(C,)),
        thai_page(C),
        english_page(D, outlinks=(E,)),
        english_page(E, outlinks=(F,)),
        thai_page(F),
        PageRecord(url=DEAD, status=404),
    ]


@pytest.fixture()
def tiny_log(tiny_pages) -> CrawlLog:
    return CrawlLog(tiny_pages)


@pytest.fixture()
def tiny_web(tiny_log) -> VirtualWebSpace:
    return VirtualWebSpace(tiny_log)


@pytest.fixture(scope="session")
def thai_dataset():
    """A small captured Thai dataset shared across the session."""
    return build_dataset(thai_profile().scaled(TEST_SCALE))


@pytest.fixture(scope="session")
def japanese_dataset():
    """A small captured Japanese dataset shared across the session."""
    return build_dataset(japanese_profile().scaled(TEST_SCALE))
