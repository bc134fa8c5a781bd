"""Checkpoint/resume: serialisation, validation, and the headline
guarantee — a killed-and-resumed crawl is indistinguishable from an
uninterrupted one.

The golden-harness differential (resume mid-crawl, compare the full
fetch sequence against the checked-in fixture) lives in
``tests/golden/test_golden_resilience.py``; this file covers the tiny-web
equivalents plus every file-format and mismatch error path.
"""

import json
import random
import struct
import zlib

import numpy as np
import pytest

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.charset.languages import Language
from repro.core.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    CheckpointState,
    read_checkpoint,
    write_checkpoint,
)
from repro.core.classifier import Classifier
from repro.core.engine import EngineHook
from repro.core.frontier import (
    Candidate,
    FIFOFrontier,
    PriorityFrontier,
    ReprioritizableFrontier,
)
from repro.core.metrics import MetricsRecorder
from repro.core.politeness import HostQueueFrontier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.core.timing import TimingModel
from repro.errors import CheckpointError, ConfigError
from repro.experiments.golden import GOLDEN_FIXTURE_DIR, golden_dataset, read_golden_trace
from repro.faults import FaultModel, FaultProfile

from conftest import (
    CHECKPOINT_MAGIC,
    SEED,
    V4_CHECKPOINT_DIR,
    V5_CHECKPOINT_DIR,
    A,
    C,
    F,
    checkpoint_layout,
    frontier_roundtrip,
    legacy_checkpoint,
    plain_columns,
    reseal_checkpoint,
)

THAI_SET = frozenset({SEED, A, C, F})

FAULTY_PROFILE = FaultProfile(
    transient_error_rate=0.5, timeout_rate=0.2, truncation_rate=0.3
)


def _state(**overrides) -> CheckpointState:
    defaults = dict(
        strategy="breadth-first",
        steps=3,
        urls=[SEED],
        scheduled=1,
        frontier={
            "kind": "fifo", "pushes": 1, "pops": 1, "peak_size": 1,
            "u": [], "p": [], "d": [], "r": [],
        },
        recorder={},
        visitor={"pages_fetched": 3, "bytes_fetched": 6144, "fetches_failed": 0},
        loop={},
    )
    defaults.update(overrides)
    return CheckpointState(**defaults)


def simulate(web, strategy=None, **config):
    config.setdefault("sample_interval", 1)
    return CrawlSession(
        CrawlRequest(
            strategy=strategy or BreadthFirstStrategy(),
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
            relevant_urls=THAI_SET,
        ),
        SessionConfig(**config),
    )


#: The last version of the JSONL layout, which the reader still takes.
JSONL_VERSION = 4


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        state = _state(timing={"now": 4.5}, breakers={"hosts": {}})
        write_checkpoint(path, state)
        loaded = read_checkpoint(path)
        data = path.read_bytes()
        assert data[:8] == CHECKPOINT_MAGIC
        assert checkpoint_layout(data)[0]["version"] == FORMAT_VERSION == 5
        assert loaded.strategy == "breadth-first"
        assert loaded.steps == 3
        assert (loaded.urls, loaded.scheduled, plain_columns(loaded.frontier)) == (
            state.urls, state.scheduled, state.frontier,
        )
        assert loaded.visitor == state.visitor
        assert loaded.timing == {"now": 4.5}
        assert loaded.faults is None

    def test_write_replaces_atomically(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        write_checkpoint(path, _state(steps=1))
        write_checkpoint(path, _state(steps=2))
        assert read_checkpoint(path).steps == 2
        assert not path.with_name(path.name + ".tmp").exists()

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_checkpoint(tmp_path / "nope.ckpt")

    def test_unwritable_destination(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot write"):
            write_checkpoint(tmp_path / "missing-dir" / "crawl.ckpt", _state())

    def test_empty_file(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_text("")
        with pytest.raises(CheckpointError, match="empty checkpoint"):
            read_checkpoint(path)

    def test_foreign_format(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_text('{"format": "something-else", "version": 1}\n')
        with pytest.raises(CheckpointError, match="not a crawl checkpoint"):
            read_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": FORMAT_VERSION + 1}) + "\n"
        )
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            read_checkpoint(path)

    def test_malformed_section_line(self, tmp_path):
        """A JSONL file's section line, and a version-5 header, that are not JSON."""
        path = tmp_path / "crawl.ckpt"
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": JSONL_VERSION}) + "\n"
            + "not json\n"
        )
        with pytest.raises(CheckpointError, match="malformed checkpoint section"):
            read_checkpoint(path)
        raw = b"not json"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<QI", len(raw), zlib.crc32(raw)) + raw)
        with pytest.raises(CheckpointError, match="checkpoint header: not JSON"):
            read_checkpoint(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": JSONL_VERSION}) + "\n"
            + json.dumps({"section": "surprise", "data": {}}) + "\n"
        )
        with pytest.raises(CheckpointError, match="unknown section 'surprise'"):
            read_checkpoint(path)
        write_checkpoint(path, _state())
        reseal_checkpoint(path, path, mutate=_put({}, "surprise"))
        with pytest.raises(CheckpointError, match="unknown section 'surprise'"):
            read_checkpoint(path)

    def test_missing_required_sections(self, tmp_path):
        path = tmp_path / "crawl.ckpt"
        path.write_text(
            json.dumps({"format": FORMAT_NAME, "version": JSONL_VERSION}) + "\n"
            + json.dumps({"section": "frontier", "data": {}}) + "\n"
        )
        with pytest.raises(CheckpointError, match="missing sections"):
            read_checkpoint(path)
        write_checkpoint(path, _state())
        reseal_checkpoint(path, path, mutate=_drop("visitor"))
        with pytest.raises(CheckpointError, match=r"missing sections \['visitor'\]"):
            read_checkpoint(path)


def _drop(*path):
    """A mutation deleting ``sections[path[0]][path[1]]...``."""

    def mutate(sections):
        *parents, last = path
        target = sections
        for key in parents:
            target = target[key]
        del target[last]

    return mutate


def _put(value, *path):
    """A mutation setting ``sections[path[0]][path[1]]... = value``
    (``value`` may be a function of the sections)."""

    def mutate(sections):
        *parents, last = path
        target = sections
        for key in parents:
            target = target[key]
        target[last] = value(sections) if callable(value) else value

    return mutate


def _duplicate_heap_key(sections):
    """Give the second priority row the first one's ``(neg_priority,
    tiebreak)`` pair, so the two could only be ordered by their URLs."""
    frontier = sections["frontier"]
    for name in ("neg_priority", "tiebreak"):
        frontier[name][1] = frontier[name][0]


class _Raw:
    """A mutation of a version-5 file's encoded columns, not its sections
    (:func:`~conftest.reseal_checkpoint`'s ``mutate_columns``)."""

    def __init__(self, mutate):
        self.mutate = mutate


def _poke(key, index, value):
    """A raw mutation setting item ``index`` of column ``key`` (``value``
    may be a function of the column)."""

    def mutate(columns):
        columns[key] = column = columns[key].copy()
        column[index] = value(column) if callable(value) else value

    return _Raw(mutate)


def _poke_table_size(key, index, offset):
    """A raw mutation setting item ``index`` of column ``key`` to the URL
    table's size plus ``offset``, in the column's own dtype."""

    def mutate(columns):
        size = len(columns["urls.offsets"]) - 1
        columns[key] = column = columns[key].copy()
        column[index] = size + offset

    return _Raw(mutate)


#: Mutations every layout since version 4 can carry, with the section
#: the error must name.  A string position and a float tiebreak reach a
#: version-5 file as a column of text or float dtype.
_COLUMN_MALFORMATIONS = [
    ("ragged candidate columns", "frontier", _put(lambda s: s["frontier"]["p"][:-1], "frontier", "p")),
    ("ragged heap columns", "frontier", _put(lambda s: s["frontier"]["tiebreak"][:-1], "frontier", "tiebreak")),
    ("candidate column missing", "frontier", _drop("frontier", "u")),
    ("position past the table", "frontier", _put(lambda s: len(s["urls"]), "frontier", "u", 0)),
    ("referrer past the table", "frontier", _put(lambda s: len(s["urls"]), "frontier", "r", 0)),
    ("position -1 would wrap around", "frontier", _put(-1, "frontier", "u", 0)),
    ("referrer below -1", "frontier", _put(-2, "frontier", "r", 0)),
    ("position is a string", "frontier", _put("0", "frontier", "u", 0)),
    ("tiebreak is a float", "frontier", _put(0.5, "frontier", "tiebreak", 0)),
    ("duplicate heap key", "frontier", _duplicate_heap_key),
    ("scheduled count past the table", "scheduled", _put(lambda s: len(s["urls"]) + 1, "scheduled")),
    ("scheduled count negative", "scheduled", _put(-1, "scheduled")),
    ("scheduled is a list again", "scheduled", _put(lambda s: s["urls"], "scheduled")),
    ("frontier without counter", "frontier", _drop("frontier", "counter")),
    ("recorder without covered", "recorder", _drop("recorder", "covered")),
    ("loop is a string", "loop", _put("x", "loop")),
    ("visitor is a list", "visitor", _put([], "visitor")),
]

#: (label, format version of the file, section the error must name, mutation).
#: The first eight are the faults that escaped as bare exceptions — or
#: loaded without complaint — from version-3 files.  Then the faults the
#: columnar layout makes possible, on a real version-4 file and on a
#: resealed version-5 one; and the URL-table faults of each layout: a
#: JSON table of the wrong types, a binary one whose arena or offsets
#: are wrong.
MALFORMATIONS = [
    ("v3 candidate without its url", 3, "frontier", _drop("frontier", "heap", 0, 2, "u")),
    ("v3 short heap row", 3, "frontier", _put(lambda s: s["frontier"]["heap"][0][:2], "frontier", "heap", 0)),
    ("v3 frontier without counter", 3, "frontier", _drop("frontier", "counter")),
    ("v3 recorder without covered", 3, "recorder", _drop("recorder", "covered")),
    ("v3 loop is a string", 3, "loop", _put("x", "loop")),
    ("v3 scheduled of integers", 3, "scheduled", _put([1, 2, 3], "scheduled")),
    ("v3 scheduled is a number", 3, "scheduled", _put(7, "scheduled")),
    ("v3 frontier is a list", 3, "frontier", _put([], "frontier")),
    *[(f"v4 {label}", 4, section, mutate) for label, section, mutate in _COLUMN_MALFORMATIONS],
    ("v4 non-string table entry", 4, "urls", _put(5, "urls", 0)),
    ("v4 table is an object", 4, "urls", _put({}, "urls")),
    *[(label, 5, section, mutate) for label, section, mutate in _COLUMN_MALFORMATIONS],
    ("table entry is not UTF-8", 5, "urls", _poke("urls.arena", 0, 0xFF)),
    ("table offsets past the arena", 5, "urls", _poke("urls.offsets", -1, 127)),
    ("table offsets run backwards", 5, "urls", _poke("urls.offsets", 1, lambda c: c[2] + 1)),
    # The range bounds a version-5 column is checked against, in numpy,
    # each on the column as it is encoded and on its last row.
    ("last position at the table size", 5, "frontier", _poke_table_size("frontier.u", -1, 0)),
    ("last position negative", 5, "frontier", _poke("frontier.u", -1, -1)),
    ("last referrer at -2", 5, "frontier", _poke("frontier.r", -1, -2)),
    ("frontier is a list", 5, "frontier", _put([], "frontier")),
]


class TestMalformedContents:
    """A structural fault inside any section, of a legacy file or a
    current one, is a :class:`CheckpointError` naming the file and the
    section — never a bare ``KeyError`` / ``TypeError`` out of restore
    code (the wire handler only turns library errors into replies), and
    never a silent load.  A version-5 case is resealed, so it is its
    content the reader rejects, not its checksums."""

    @pytest.fixture(scope="class")
    def request_(self):
        """The crawl the recorded ``soft-focused`` checkpoint was cut from."""
        return CrawlRequest(strategy="soft-focused", dataset=golden_dataset()).resolve()

    def _resume(self, request_, path):
        sample_interval = max(1, len(request_.web.crawl_log) // 200)  # as recorded
        config = SessionConfig(sample_interval=sample_interval, resume_from=path)
        return CrawlSession(request_, config).open()

    @pytest.mark.parametrize(
        "version, section, mutate",
        [pytest.param(*row[1:], id=row[0]) for row in MALFORMATIONS],
    )
    def test_is_a_checkpoint_error_naming_file_and_section(
        self, request_, tmp_path, version, section, mutate
    ):
        broken = tmp_path / "broken.ckpt"
        if version == 5:
            current = tmp_path / "current.ckpt"
            legacy = legacy_checkpoint("soft-focused", 3, tmp_path)
            self._resume(request_, legacy).save_checkpoint(current)
            if isinstance(mutate, _Raw):
                reseal_checkpoint(current, broken, mutate_columns=mutate.mutate)
            else:
                reseal_checkpoint(current, broken, mutate=mutate)
        else:
            path = legacy_checkpoint("soft-focused", 3, tmp_path)
            if version == 4:
                path = V4_CHECKPOINT_DIR / "soft-focused.v4.ckpt"
            header, *lines = path.read_text(encoding="utf-8").splitlines()
            assert json.loads(header)["version"] == version
            sections = {record["section"]: record["data"] for record in map(json.loads, lines)}
            mutate(sections)
            records = [json.dumps({"section": name, "data": data}) for name, data in sections.items()]
            broken.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")
        with pytest.raises(CheckpointError) as caught:
            self._resume(request_, broken)
        assert str(broken) in str(caught.value)
        assert repr(section) in str(caught.value)
        assert "checksum" not in str(caught.value)

    def test_the_unbroken_files_resume(self, request_, tmp_path):
        """The other half of the parametrised test: what it mutates loads,
        and a version-5 file resealed without an edit is the same bytes."""
        legacy = self._resume(request_, legacy_checkpoint("soft-focused", 3, tmp_path))
        current = tmp_path / "current.ckpt"
        legacy.save_checkpoint(current)
        assert self._resume(request_, current).status() == legacy.status()
        assert legacy.status().steps == 300
        recorded = self._resume(request_, V4_CHECKPOINT_DIR / "soft-focused.v4.ckpt")
        assert recorded.status() == legacy.status()
        resealed = reseal_checkpoint(current, tmp_path / "resealed.ckpt")
        assert resealed.read_bytes() == current.read_bytes()


def _permute_frontier_rows(order_of):
    """A mutation reordering the frontier's rows, every column alike
    (``order_of(frontier)`` gives the new order of its rows)."""

    def mutate(sections):
        frontier = sections["frontier"]
        order = order_of(frontier)
        for name in ("u", "p", "d", "r", "neg_priority", "tiebreak"):
            frontier[name] = [frontier[name][row] for row in order]

    return mutate


def _pop_order(frontier):
    pairs = list(zip(frontier["neg_priority"], frontier["tiebreak"]))
    return sorted(range(len(pairs)), key=pairs.__getitem__)


def _shuffled(seed):
    def order_of(frontier):
        order = list(range(len(frontier["u"])))
        random.Random(seed).shuffle(order)
        return order

    return order_of


class TestColumnsACallerBuilt:
    """A :class:`CheckpointState` built in memory is held to the rules a
    file is: a column list must hold exact ints (``True`` is not one),
    and a column array must be of an integer dtype."""

    @pytest.fixture(scope="class")
    def request_(self):
        return CrawlRequest(strategy="soft-focused", dataset=golden_dataset()).resolve()

    def _resume(self, request_, state):
        sample_interval = max(1, len(request_.web.crawl_log) // 200)  # as recorded
        config = SessionConfig(sample_interval=sample_interval, resume_from=state)
        return CrawlSession(request_, config).open()

    def test_the_state_as_read_resumes(self, request_):
        state = read_checkpoint(V4_CHECKPOINT_DIR / "soft-focused.v4.ckpt")
        assert self._resume(request_, state).status().steps == 300

    @pytest.mark.parametrize("column", ["u", "p", "d", "r", "neg_priority", "tiebreak"])
    def test_a_bool_inside_a_column_list_is_refused(self, request_, column):
        state = read_checkpoint(V4_CHECKPOINT_DIR / "soft-focused.v4.ckpt")
        assert type(state.frontier[column]) is list
        state.frontier[column][0] = bool(state.frontier[column][0] % 2)
        with pytest.raises(CheckpointError, match=f"'frontier' section: column '{column}'"):
            self._resume(request_, state)

    @pytest.mark.parametrize("dtype", [bool, np.float64, np.uint16])
    def test_a_column_array_of_another_dtype_is_refused(self, request_, dtype):
        state = read_checkpoint(V5_CHECKPOINT_DIR / "soft-focused.v5.ckpt")
        state.frontier["d"] = state.frontier["d"].astype(dtype)
        with pytest.raises(CheckpointError, match="'frontier' section: column 'd'"):
            self._resume(request_, state)


_FRONTIER_OF_KIND = {
    "fifo": FIFOFrontier,
    "priority": PriorityFrontier,
    "reprioritizable": ReprioritizableFrontier,
    "host-queue": HostQueueFrontier,
}


def _assert_plain(candidate):
    """No numpy scalar in a candidate: every field its exact Python type."""
    assert type(candidate.url) is str
    assert type(candidate.priority) is int and type(candidate.distance) is int
    assert candidate.referrer is None or type(candidate.referrer) is str
    assert candidate.uid is None


class TestRestoredCandidatesArePlain:
    """A queue restored from a version-5 file's arrays pops candidates of
    plain ints and strings, before and after a snapshot of its partly
    popped rows is restored again."""

    @pytest.mark.parametrize(
        "path", sorted(V5_CHECKPOINT_DIR.glob("*.ckpt")), ids=lambda path: path.name
    )
    def test_every_popped_field_is_a_python_value(self, path):
        state = read_checkpoint(path)
        make = _FRONTIER_OF_KIND[state.frontier["kind"]]
        frontier = make()
        frontier.restore(state.frontier, state.urls)
        queued = len(frontier)
        head = [frontier.pop() for _ in range(queued // 3)]
        index: dict[str, int] = {}
        again = make()
        again.restore(frontier.snapshot(index), list(index))
        rest = []
        while again:
            rest.append(again.pop())
        assert len(head) + len(rest) == queued > 0
        for candidate in head + rest:
            _assert_plain(candidate)


class TestPriorityRowOrder:
    """A priority frontier's rows are keyed by ``(neg_priority,
    tiebreak)``, so their order in the file is no part of the queue: the
    recorded heap-layout file, its rows in pop order, reversed or
    shuffled, resume the same crawl — the golden one."""

    @pytest.fixture(scope="class")
    def request_(self):
        return CrawlRequest(strategy="soft-focused", dataset=golden_dataset()).resolve()

    @pytest.mark.parametrize(
        "order_of",
        [
            pytest.param(None, id="as-recorded"),
            pytest.param(_pop_order, id="pop-order"),
            pytest.param(lambda frontier: list(range(len(frontier["u"])))[::-1], id="reversed"),
            pytest.param(_shuffled(1), id="shuffled-1"),
            pytest.param(_shuffled(2), id="shuffled-2"),
        ],
    )
    def test_any_row_order_resumes_the_golden_crawl(self, request_, tmp_path, order_of):
        path = V5_CHECKPOINT_DIR / "soft-focused.v5.ckpt"
        if order_of is not None:
            path = reseal_checkpoint(
                path, tmp_path / "permuted.ckpt", mutate=_permute_frontier_rows(order_of)
            )
        urls: list[str] = []
        CrawlSession(
            request_,
            SessionConfig(
                max_pages=1100,
                sample_interval=max(1, len(request_.web.crawl_log) // 200),
                on_fetch=lambda event: urls.append(event.url),
                resume_from=path,
            ),
        ).run()
        golden = read_golden_trace(GOLDEN_FIXTURE_DIR / "soft-focused.jsonl")[1]
        assert urls == [row["url"] for row in golden[300:]]


class TestFrontierSnapshots:
    def _drain(self, frontier):
        urls = []
        while frontier:
            urls.append(frontier.pop().url)
        return urls

    @pytest.mark.parametrize(
        "make", [FIFOFrontier, PriorityFrontier, ReprioritizableFrontier]
    )
    def test_roundtrip_preserves_pop_order(self, make):
        frontier = make()
        for index, url in enumerate([SEED, A, C, F]):
            frontier.push(Candidate(url=url, priority=index % 2, distance=index))
        frontier.pop()

        restored = frontier_roundtrip(frontier)
        assert self._drain(restored) == self._drain(frontier)

    def test_fifo_rejects_foreign_kind(self):
        frontier = PriorityFrontier()
        frontier.push(Candidate(url=SEED))
        with pytest.raises(CheckpointError, match="kind"):
            frontier_roundtrip(frontier, into=FIFOFrontier)

    def test_reprioritizable_drops_tombstones(self):
        frontier = ReprioritizableFrontier()
        frontier.push(Candidate(url=SEED, priority=1))
        frontier.push(Candidate(url=A, priority=2))
        frontier.update_priority(SEED, 9)  # leaves a tombstone in the heap
        restored = frontier_roundtrip(frontier)
        assert restored.stale_entries == 0
        assert self._drain(restored) == [SEED, A]

    def test_candidate_fields_survive(self):
        frontier = PriorityFrontier()
        frontier.push(Candidate(url=A, priority=3, distance=2, referrer=SEED))
        restored = frontier_roundtrip(frontier)
        candidate = restored.pop()
        assert (candidate.url, candidate.priority, candidate.distance, candidate.referrer) == (
            A, 3, 2, SEED,
        )


class TestRecorderSnapshot:
    def test_restore_validates_sample_interval(self):
        recorder = MetricsRecorder("x", THAI_SET, sample_interval=2)
        other = MetricsRecorder("x", THAI_SET, sample_interval=3)
        with pytest.raises(CheckpointError, match="sample_interval"):
            other.restore(recorder.snapshot())

    def test_restore_validates_relevant_set_size(self):
        recorder = MetricsRecorder("x", THAI_SET, sample_interval=2)
        other = MetricsRecorder("x", frozenset({SEED}), sample_interval=2)
        with pytest.raises(CheckpointError, match="relevant-set size"):
            other.restore(recorder.snapshot())


class TestKillAndResume:
    """The guarantee: interrupted + resumed == uninterrupted, exactly."""

    def _uninterrupted(self, tiny_web):
        simulator = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            record_fault_journal=True,
        )
        result = simulator.run()
        return result, simulator.faulty_web

    def test_resume_is_byte_identical(self, tiny_web, tmp_path):
        full, full_web = self._uninterrupted(tiny_web)
        path = tmp_path / "crawl.ckpt"

        # "Kill" after 4 pages, checkpointing every 2.
        simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()

        resumed_sim = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            resume_from=path,
            record_fault_journal=True,
        )
        resumed = resumed_sim.run()

        assert resumed.series.to_dict() == full.series.to_dict()
        assert resumed.pages_crawled == full.pages_crawled
        assert resumed.summary.simulated_seconds == full.summary.simulated_seconds
        assert resumed.resilience["fetches_failed"] == full.resilience["fetches_failed"]
        assert resumed.resilience["faults_injected"] == full.resilience["faults_injected"]
        # The resumed fault journal is the uninterrupted journal's tail.
        tail = resumed_sim.faulty_web.journal
        assert full_web.journal[len(full_web.journal) - len(tail):] == tail

    def test_resume_accepts_loaded_state(self, tiny_web, tmp_path):
        path = tmp_path / "crawl.ckpt"
        simulate(
            tiny_web,
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()
        resumed = simulate(tiny_web, resume_from=read_checkpoint(path)).run()
        assert resumed.pages_crawled == simulate(tiny_web).run().pages_crawled

    def test_resume_rejects_wrong_strategy(self, tiny_web, tmp_path):
        path = tmp_path / "crawl.ckpt"
        simulate(
            tiny_web,
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()
        with pytest.raises(CheckpointError, match="strategy"):
            simulate(tiny_web, SimpleStrategy(mode="hard"), resume_from=path).run()

    def test_resume_with_faults_requires_fault_model(self, tiny_web, tmp_path):
        path = tmp_path / "crawl.ckpt"
        simulate(
            tiny_web,
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()
        with pytest.raises(CheckpointError, match="fault"):
            simulate(tiny_web, resume_from=path).run()

    def test_resume_rejects_fault_seed_mismatch(self, tiny_web, tmp_path):
        path = tmp_path / "crawl.ckpt"
        simulate(
            tiny_web,
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()
        with pytest.raises(ConfigError, match="seed"):
            simulate(
                tiny_web, faults=FaultModel(profile=FAULTY_PROFILE, seed=7), resume_from=path
            ).run()


class _KillSignal(BaseException):
    """Simulated hard kill (BaseException so nothing swallows it)."""


class _BackoffKillHook(EngineHook):
    """An engine hook that 'kills the process' at a chosen backoff.

    ``on_retry`` fires only on the engine's retry path — between a
    failed fetch attempt and its backoff and retry — so raising from
    the N-th call interrupts the crawl exactly at the backoff boundary,
    with the in-flight candidate's attempt half-done.
    """

    def __init__(self, kill_at_backoff: int | None = None) -> None:
        self.backoffs_seen = 0
        self.kill_at_backoff = kill_at_backoff

    def on_retry(self, candidate, attempt: int) -> None:
        self.backoffs_seen += 1
        if self.kill_at_backoff is not None and self.backoffs_seen == self.kill_at_backoff:
            raise _KillSignal()


class TestBackoffBoundaryKill:
    """A checkpoint on disk must stay consistent when the crawl dies
    mid-retry-backoff: resuming must replay the in-flight candidate's
    whole fetch round, never double-count its attempts."""

    def _run(self, tiny_web, killer=None, path=None, resume_from=None):
        checkpointing = {}
        if path is not None:
            checkpointing = {"checkpoint_every": 1, "checkpoint_path": path}
        simulator = simulate(
            tiny_web,
            timing=TimingModel(),
            hooks=(killer,) if killer is not None else (),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            record_fault_journal=True,
            resume_from=resume_from,
            **checkpointing,
        )
        return simulator.run(), simulator

    def test_kill_at_every_backoff_boundary_resumes_identically(self, tiny_web, tmp_path):
        reference = _BackoffKillHook()
        full, _ = self._run(tiny_web, reference)
        assert reference.backoffs_seen > 0, "profile must exercise retries"
        assert full.resilience["retries"] > 0

        for kill_at in range(1, reference.backoffs_seen + 1):
            path = tmp_path / f"kill{kill_at}.ckpt"
            with pytest.raises(_KillSignal):
                self._run(tiny_web, _BackoffKillHook(kill_at), path=path)
            assert path.exists(), "cadence=1 must have checkpointed before the kill"

            resumed, _ = self._run(tiny_web, resume_from=path)
            assert resumed.pages_crawled == full.pages_crawled, f"kill_at={kill_at}"
            assert resumed.series.to_dict() == full.series.to_dict(), f"kill_at={kill_at}"
            for key in ("retries", "requeued", "dropped", "fetches_failed"):
                assert resumed.resilience[key] == full.resilience[key], (
                    f"kill_at={kill_at}: {key} double-counted across the "
                    f"backoff-boundary resume"
                )

    def test_checkpoint_written_before_kill_has_step_consistent_loop_state(
        self, tiny_web, tmp_path
    ):
        # The on-disk loop section must describe a step boundary: its
        # retry/requeue tallies were serialised at the last completed
        # step, not mid-flight.
        path = tmp_path / "mid.ckpt"
        with pytest.raises(_KillSignal):
            self._run(tiny_web, _BackoffKillHook(1), path=path)
        state = read_checkpoint(path)
        assert state.steps >= 1
        assert state.loop["steps"] == state.steps
        # The in-flight candidate's interrupted attempt is absent from
        # the serialised tallies (retries recorded in memory after the
        # write must not leak into the file).
        full, _ = self._run(tiny_web)
        assert state.loop["retries"] <= full.resilience["retries"]


class TestSchedBoundaryKill:
    """The kill/resume guarantee extended to the event-driven engine.

    With K>1 slots a checkpoint taken at a step boundary carries
    *in-flight* events — fetches issued but not yet completed.  Resuming
    must rebuild that event heap exactly: the full fetch trace, the
    series and every resilience tally must match the uninterrupted run,
    whichever event boundary (or mid-retry backoff) the crawl died at.
    """

    CONCURRENCY = 4

    def _session(
        self,
        tiny_web,
        killer=None,
        concurrency=CONCURRENCY,
        path=None,
        resume_from=None,
        on_fetch=None,
    ):
        return CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
                relevant_urls=THAI_SET,
            ),
            SessionConfig(
                sample_interval=1,
                timing=TimingModel(),
                hooks=(killer,) if killer is not None else (),
                concurrency=concurrency,
                faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
                checkpoint_every=1 if path is not None else None,
                checkpoint_path=path,
                resume_from=resume_from,
                on_fetch=on_fetch,
            ),
        )

    def _full(self, tiny_web, killer=None):
        urls: list[str] = []
        result = self._session(
            tiny_web, killer, on_fetch=lambda event: urls.append(event.url)
        ).run()
        return result, urls

    def test_cut_at_every_event_boundary_resumes_identically(self, tiny_web, tmp_path):
        full, full_urls = self._full(tiny_web)
        assert full.pages_crawled > self.CONCURRENCY, "web too small to overlap fetches"

        saw_in_flight = False
        for cut in range(1, full.pages_crawled):
            urls: list[str] = []
            partial = self._session(
                tiny_web, on_fetch=lambda event: urls.append(event.url)
            ).open()
            partial.step(cut)
            state = partial.snapshot()
            partial.close()
            assert state.sched is not None
            assert state.sched["concurrency"] == self.CONCURRENCY
            saw_in_flight = saw_in_flight or bool(state.sched["events"])

            path = tmp_path / f"cut{cut}.ckpt"
            write_checkpoint(path, state)
            resumed = self._session(
                tiny_web,
                resume_from=path,
                on_fetch=lambda event: urls.append(event.url),
            ).run()

            assert urls == full_urls, f"cut={cut}"
            assert resumed.pages_crawled == full.pages_crawled, f"cut={cut}"
            assert resumed.series.to_dict() == full.series.to_dict(), f"cut={cut}"
            assert resumed.summary.simulated_seconds == full.summary.simulated_seconds
            for key in ("retries", "requeued", "dropped", "fetches_failed"):
                assert resumed.resilience[key] == full.resilience[key], (
                    f"cut={cut}: {key} diverged across the event-boundary resume"
                )
        assert saw_in_flight, (
            "no cut ever had in-flight events; the sweep did not exercise "
            "the event-heap snapshot at all"
        )

    def test_kill_at_every_backoff_boundary_resumes_identically(self, tiny_web, tmp_path):
        reference = _BackoffKillHook()
        full, full_urls = self._full(tiny_web, killer=reference)
        assert reference.backoffs_seen > 0, "profile must exercise retries"

        for kill_at in range(1, reference.backoffs_seen + 1):
            path = tmp_path / f"sched-kill{kill_at}.ckpt"
            with pytest.raises(_KillSignal):
                self._session(tiny_web, _BackoffKillHook(kill_at), path=path).run()
            assert path.exists(), "cadence=1 must have checkpointed before the kill"

            urls: list[str] = []
            resumed = self._session(
                tiny_web,
                resume_from=path,
                on_fetch=lambda event: urls.append(event.url),
            ).run()
            # The resumed tail must be the uninterrupted trace's tail.
            assert urls == full_urls[len(full_urls) - len(urls):], f"kill_at={kill_at}"
            assert resumed.pages_crawled == full.pages_crawled, f"kill_at={kill_at}"
            assert resumed.series.to_dict() == full.series.to_dict(), f"kill_at={kill_at}"
            for key in ("retries", "requeued", "dropped", "fetches_failed"):
                assert resumed.resilience[key] == full.resilience[key], (
                    f"kill_at={kill_at}: {key} double-counted across the "
                    f"backoff-boundary resume"
                )

    def test_round_based_engine_rejects_sched_checkpoint(self, tiny_web, tmp_path):
        partial = self._session(tiny_web).open()
        partial.step(1)
        state = partial.snapshot()
        partial.close()
        path = tmp_path / "sched.ckpt"
        write_checkpoint(path, state)
        with pytest.raises(CheckpointError, match="concurrency"):
            self._session(tiny_web, concurrency=None, resume_from=path).run()

    def test_sched_engine_rejects_round_based_checkpoint(self, tiny_web, tmp_path):
        partial = self._session(tiny_web, concurrency=None).open()
        partial.step(1)
        state = partial.snapshot()
        partial.close()
        path = tmp_path / "round.ckpt"
        write_checkpoint(path, state)
        with pytest.raises(CheckpointError, match="round-based"):
            self._session(tiny_web, resume_from=path).run()

    def test_concurrency_mismatch_rejected(self, tiny_web, tmp_path):
        partial = self._session(tiny_web).open()
        partial.step(1)
        state = partial.snapshot()
        partial.close()
        path = tmp_path / "k4.ckpt"
        write_checkpoint(path, state)
        with pytest.raises(CheckpointError, match="concurrency=4"):
            self._session(tiny_web, concurrency=2, resume_from=path).run()


class TestAdversaryKillAndResume:
    """Checkpoint v3 round-trips adversary chain state + defense counters.

    The hostile profile keeps *state* across fetches — in-flight
    redirect-chain targets, trap tallies, fingerprint sets, host
    streaks — so a cut anywhere must reload all of it or the resumed
    trace diverges.  Pinned on the round-based engine and at K=3.
    """

    PROFILE = AdversaryProfile(
        trap_hosts=("seed.co.th",),
        trap_fanout=2,
        redirect_rate=0.4,
        redirect_hops=2,
        alias_host_rate=0.4,
    )
    MAX_PAGES = 25  # the trap subtree is unbounded; cap the run

    def _session(self, tiny_web, concurrency, resume_from=None, on_fetch=None):
        return CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
                relevant_urls=THAI_SET,
            ),
            SessionConfig(
                max_pages=self.MAX_PAGES,
                sample_interval=1,
                concurrency=concurrency,
                adversary=AdversaryModel(profile=self.PROFILE, seed=5),
                defenses=DefenseConfig.standard(),
                resume_from=resume_from,
                on_fetch=on_fetch,
            ),
        )

    @pytest.mark.parametrize("concurrency", [None, 3])
    def test_cut_mid_crawl_resumes_identically(self, tiny_web, tmp_path, concurrency):
        full_urls: list[str] = []
        full = self._session(
            tiny_web, concurrency, on_fetch=lambda event: full_urls.append(event.url)
        ).run()
        assert full.adversary["injected"]["trap_pages"] > 0

        for cut in (3, 8, 15):
            urls: list[str] = []
            partial = self._session(
                tiny_web, concurrency, on_fetch=lambda event: urls.append(event.url)
            ).open()
            partial.step(cut)
            state = partial.snapshot()
            partial.close()
            assert state.adversary is not None and state.defenses is not None

            path = tmp_path / f"adv-k{concurrency}-cut{cut}.ckpt"
            write_checkpoint(path, state)
            resumed = self._session(
                tiny_web,
                concurrency,
                resume_from=path,
                on_fetch=lambda event: urls.append(event.url),
            ).run()

            assert urls == full_urls, f"cut={cut}"
            assert resumed.series.to_dict() == full.series.to_dict(), f"cut={cut}"
            assert resumed.adversary == full.adversary, (
                f"cut={cut}: injection tallies or defense stats diverged — "
                "the checkpoint did not round-trip adversary state"
            )

    def test_resume_with_adversary_state_requires_adversary(self, tiny_web, tmp_path):
        partial = self._session(tiny_web, None).open()
        partial.step(3)
        state = partial.snapshot()
        partial.close()
        path = tmp_path / "adv.ckpt"
        write_checkpoint(path, state)
        with pytest.raises(CheckpointError, match="adversary"):
            CrawlSession(
                CrawlRequest(
                    strategy=BreadthFirstStrategy(),
                    web=tiny_web,
                    classifier=Classifier(Language.THAI),
                    seeds=(SEED,),
                    relevant_urls=THAI_SET,
                ),
                SessionConfig(
                    max_pages=self.MAX_PAGES, sample_interval=1, resume_from=path
                ),
            ).run()

    def test_resume_rejects_adversary_seed_mismatch(self, tiny_web, tmp_path):
        partial = self._session(tiny_web, None).open()
        partial.step(3)
        state = partial.snapshot()
        partial.close()
        path = tmp_path / "adv-seed.ckpt"
        write_checkpoint(path, state)
        mismatched = CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
                relevant_urls=THAI_SET,
            ),
            SessionConfig(
                max_pages=self.MAX_PAGES,
                sample_interval=1,
                adversary=AdversaryModel(profile=self.PROFILE, seed=6),
                defenses=DefenseConfig.standard(),
                resume_from=path,
            ),
        )
        with pytest.raises(ConfigError, match="seed"):
            mismatched.run()


class TestFaultRetryParity:
    """Audit: a fetch that faults mid-flight retries with the same
    backoff/breaker accounting on the event-driven engine as on the
    round-based one.  At K=1 under the zero-latency clock the two
    engines see identical fetch sequences, so every resilience tally —
    retries, requeues, drops, failures, per-kind injections — must
    match exactly."""

    def _run(self, tiny_web, concurrency):
        timing = None
        if concurrency is not None:
            timing = TimingModel(
                bandwidth_bytes_per_s=float("inf"),
                latency_s=0.0,
                politeness_interval_s=0.0,
            )
        urls: list[str] = []
        result = CrawlSession(
            CrawlRequest(
                strategy=BreadthFirstStrategy(),
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
                relevant_urls=THAI_SET,
            ),
            SessionConfig(
                sample_interval=1,
                concurrency=concurrency,
                timing=timing,
                faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
                on_fetch=lambda event: urls.append(event.url),
            ),
        ).run()
        return result, urls

    def test_k1_resilience_tallies_match_round_based(self, tiny_web):
        round_based, round_urls = self._run(tiny_web, None)
        event_driven, event_urls = self._run(tiny_web, 1)
        assert round_based.resilience["retries"] > 0, "profile must exercise retries"
        for key in ("retries", "requeued", "dropped", "fetches_failed", "faults_injected"):
            assert event_driven.resilience[key] == round_based.resilience[key], key
        assert event_urls == round_urls


class TestAttemptCounterPruning:
    """Regression for the unbounded per-URL attempt dict: completed
    fetches prune their counters, the checkpoint serialises the pruned
    form, and resuming from it stays byte-identical."""

    def test_checkpoint_carries_only_live_attempt_counters(self, tiny_web, tmp_path):
        path = tmp_path / "pruned.ckpt"
        simulator = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            checkpoint_every=1,
            checkpoint_path=path,
        )
        result = simulator.run()
        assert result.pages_crawled > 0
        state = read_checkpoint(path)
        # Every completed URL's counter was pruned before serialisation:
        # the only entries a checkpoint may carry are URLs still below
        # the transient recovery threshold (attempt numbers that must
        # survive the resume bit-exactly).
        threshold = FAULTY_PROFILE.transient_recovery_attempts
        assert all(
            count < threshold for count in state.faults["attempts"].values()
        ), state.faults["attempts"]
        assert len(state.faults["attempts"]) <= len(THAI_SET)

    def test_resume_from_pruned_checkpoint_is_equivalent(self, tiny_web, tmp_path):
        full = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
        ).run()

        path = tmp_path / "pruned-resume.ckpt"
        simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            max_pages=4,
            checkpoint_every=2,
            checkpoint_path=path,
        ).run()
        resumed = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=FaultModel(profile=FAULTY_PROFILE, seed=42),
            resume_from=path,
        ).run()
        assert resumed.series.to_dict() == full.series.to_dict()
        assert resumed.resilience["faults_injected"] == full.resilience["faults_injected"]


class TestCheckpointConfig:
    def test_checkpoint_every_requires_path(self, tiny_web):
        with pytest.raises(ConfigError, match="checkpoint_path"):
            simulate(tiny_web, checkpoint_every=10)

    def test_checkpoint_every_must_be_positive(self, tiny_web, tmp_path):
        with pytest.raises(ConfigError, match=">= 1"):
            simulate(
                tiny_web,
                checkpoint_every=0,
                checkpoint_path=tmp_path / "c.ckpt",
            )
