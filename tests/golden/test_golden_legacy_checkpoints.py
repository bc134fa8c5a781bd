"""Real legacy checkpoints: files an older writer produced still resume.

``fixtures/checkpoints/*.v3.ckpt`` were written by the last commit whose
writer produced format version 3 (``MANIFEST.json`` there names it),
each at step 300 of a crawl of the golden web: one per frontier class
and per optional section — ``sched`` (K=3), ``timing``, ``faults`` /
``breakers``, ``adversary`` / ``defenses``.  The current reader must
upgrade each to the in-memory shape the current ``Frontier.restore``
knows, and a resume from it must replay steps 301–1100 of the crawl it
was cut from, byte for byte:

- against the checked-in golden trace where the crawl has one;
- against the digest of the uninterrupted trace the *recording* commit
  produced (in the manifest), for the crawls that have none — with the
  current code's own uninterrupted run computed next to it, so that a
  failure names the first divergent step instead of two hashes.

Versions 1 and 2 are read from header-rewritten forms of the same files
wherever the file has no section those versions lacked.

``fixtures/checkpoints/v4/*.v4.ckpt`` are the same seven crawls cut at
the same step by the last commit whose writer produced format version 4
(the columnar JSONL layout; ``v4/MANIFEST.json``), replayed the same way.

``fixtures/checkpoints/v5/*.v5.ckpt`` are the same seven again, written
by the last commit whose priority frontier was a binary heap
(``v5/MANIFEST.json``): the format is the current one, but the four
priority frontiers' rows are in that heap's internal layout, not the pop
order the current writer uses — the only real files that exercise the
reader's re-sorting path.  Each priority frontier, restored and drained,
must pop what the recording commit's own restore popped.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.core.checkpoint import read_checkpoint
from repro.core.classifier import Classifier
from repro.core.frontier import PriorityFrontier, ReprioritizableFrontier
from repro.core.politeness import HostQueues
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import get_strategy
from repro.experiments.golden import (
    GOLDEN_FIXTURE_DIR,
    cued_golden_dataset,
    first_divergence,
    golden_dataset,
    read_golden_trace,
)
from repro.faults import FaultModel, FaultProfile

from conftest import (
    LEGACY_CHECKPOINT_DIR,
    V4_CHECKPOINT_DIR,
    V5_CHECKPOINT_DIR,
    checkpoint_layout,
    legacy_checkpoint,
)

MANIFEST = json.loads((LEGACY_CHECKPOINT_DIR / "MANIFEST.json").read_text(encoding="utf-8"))
V4_MANIFEST = json.loads((V4_CHECKPOINT_DIR / "MANIFEST.json").read_text(encoding="utf-8"))
V5_MANIFEST = json.loads((V5_CHECKPOINT_DIR / "MANIFEST.json").read_text(encoding="utf-8"))
CUT = MANIFEST["cut"]

#: (fixture entry, format version) for every file the suite reads.
CASES = [
    pytest.param(entry, version, id=f"{entry['file'].removesuffix('.v3.ckpt')}-v{version}")
    for entry in MANIFEST["fixtures"]
    for version in (*entry["also_versions"], 3)
] + [
    pytest.param(entry, version, id=f"{entry['file'].removesuffix(f'.v{version}.ckpt')}-v{version}")
    for version, manifest in ((4, V4_MANIFEST), (5, V5_MANIFEST))
    for entry in manifest["fixtures"]
]

#: The directory of each recorded version past 3.
RECORDED_DIRS = {4: V4_CHECKPOINT_DIR, 5: V5_CHECKPOINT_DIR}


def _fixture_path(entry: dict, version: int, tmp_path):
    if version in RECORDED_DIRS:
        return RECORDED_DIRS[version] / entry["file"]
    return legacy_checkpoint(entry["file"].removesuffix(".v3.ckpt"), version, tmp_path)


@pytest.fixture(scope="module")
def datasets():
    return {False: golden_dataset(), True: cued_golden_dataset()}


def _digest(rows: list[dict]) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode("utf-8")).hexdigest()


def _trace(dataset, entry: dict, resume_from=None) -> list[dict]:
    """The crawl ``entry`` was cut from (or its tail, resumed), as trace rows."""
    strategy = get_strategy(entry["strategy"])
    extras: dict = {}
    if entry.get("polite"):
        extras["frontier"] = HostQueues()
    if entry.get("concurrency") is not None:
        extras["concurrency"] = entry["concurrency"]
    if entry.get("faults"):
        extras["faults"] = FaultModel(
            profile=FaultProfile(**MANIFEST["fault_profile"]), seed=MANIFEST["fault_seed"]
        )
    if entry.get("adversary"):
        extras["adversary"] = AdversaryModel(
            profile=AdversaryProfile(**MANIFEST["adversary_profile"]),
            seed=MANIFEST["adversary_seed"],
        )
        extras["defenses"] = DefenseConfig.standard()
    rows: list[dict] = []
    CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=dataset.web(),
            classifier=Classifier(dataset.target_language),
            seeds=tuple(dataset.seed_urls),
            relevant_urls=dataset.relevant_urls(),
        ),
        SessionConfig(
            max_pages=MANIFEST["max_pages"],
            sample_interval=max(1, len(dataset.crawl_log) // 200),
            on_fetch=lambda event: rows.append(
                {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
            ),
            resume_from=resume_from,
            **extras,
        ),
    ).run()
    return rows


class TestFixtureIntegrity:
    def test_manifest_lists_exactly_the_files(self):
        on_disk = sorted(path.name for path in LEGACY_CHECKPOINT_DIR.glob("*.ckpt"))
        assert on_disk == sorted(entry["file"] for entry in MANIFEST["fixtures"])

    def test_files_are_version_3_in_the_per_candidate_layout(self):
        """Guards against "refreshing" a fixture with the current writer."""
        for entry in MANIFEST["fixtures"]:
            lines = (LEGACY_CHECKPOINT_DIR / entry["file"]).read_text(encoding="utf-8").splitlines()
            assert json.loads(lines[0])["version"] == 3, entry["file"]
            sections = {record["section"]: record["data"] for record in map(json.loads, lines[1:])}
            assert sorted(sections) == entry["sections"]
            assert "urls" not in sections and isinstance(sections["scheduled"], list)
            assert sections["frontier"]["kind"] == entry["frontier_kind"]
            assert "u" not in sections["frontier"]

    def test_v4_manifest_lists_exactly_the_files(self):
        on_disk = sorted(path.name for path in V4_CHECKPOINT_DIR.glob("*.ckpt"))
        assert on_disk == sorted(entry["file"] for entry in V4_MANIFEST["fixtures"])

    def test_v4_files_are_the_columnar_jsonl_layout_of_the_same_crawls(self):
        """Guards against "refreshing" a fixture with the current writer,
        and pins that each v4 file is the v3 set's crawl, cut at its step."""
        assert V4_MANIFEST["cut"] == CUT and V4_MANIFEST["max_pages"] == MANIFEST["max_pages"]
        for old, entry in zip(MANIFEST["fixtures"], V4_MANIFEST["fixtures"], strict=True):
            assert entry["file"] == old["file"].replace(".v3.", ".v4.")
            assert entry["suffix_sha256"] == old["suffix_sha256"], entry["file"]
            lines = (V4_CHECKPOINT_DIR / entry["file"]).read_text(encoding="utf-8").splitlines()
            header = json.loads(lines[0])
            assert (header["version"], header["steps"]) == (4, CUT), entry["file"]
            sections = {record["section"]: record["data"] for record in map(json.loads, lines[1:])}
            assert sorted(sections) == entry["sections"] == sorted([*old["sections"], "urls"])
            assert isinstance(sections["scheduled"], int) and isinstance(sections["urls"], list)
            assert sections["frontier"]["kind"] == entry["frontier_kind"]
            assert {"u", "p", "d", "r"} <= sections["frontier"].keys()

    def test_v5_manifest_lists_exactly_the_files(self):
        on_disk = sorted(path.name for path in V5_CHECKPOINT_DIR.glob("*.ckpt"))
        assert on_disk == sorted(entry["file"] for entry in V5_MANIFEST["fixtures"])

    def test_v5_files_are_the_same_crawls_with_heap_layout_priority_rows(self):
        """Guards against "refreshing" a fixture with the current writer:
        each priority frontier's rows are not sorted by ``(neg_priority,
        tiebreak)``, which pop-order rows always are."""
        assert V5_MANIFEST["cut"] == CUT and V5_MANIFEST["max_pages"] == MANIFEST["max_pages"]
        for old, entry in zip(V4_MANIFEST["fixtures"], V5_MANIFEST["fixtures"], strict=True):
            assert entry["file"] == old["file"].replace(".v4.", ".v5.")
            assert entry["suffix_sha256"] == old["suffix_sha256"], entry["file"]
            assert entry["sections"] == old["sections"], entry["file"]
            data = (V5_CHECKPOINT_DIR / entry["file"]).read_bytes()
            header, _ = checkpoint_layout(data)
            assert (header["version"], header["steps"]) == (5, CUT), entry["file"]
            assert header["frontier"]["kind"] == entry["frontier_kind"]
            if entry["frontier_kind"] == "priority":
                assert entry["rows_in_heap_layout"], entry["file"]
                frontier = read_checkpoint(V5_CHECKPOINT_DIR / entry["file"]).frontier
                rows = list(zip(frontier["neg_priority"], frontier["tiebreak"]))
                assert rows != sorted(rows), entry["file"]
        kinds = [entry["frontier_kind"] for entry in V5_MANIFEST["fixtures"]]
        assert kinds.count("priority") == 4

    def test_every_frontier_class_and_optional_section_is_covered(self):
        assert {entry["frontier_kind"] for entry in MANIFEST["fixtures"]} == {
            "fifo", "priority", "reprioritizable", "host-queue",
        }
        covered = set().union(*(entry["sections"] for entry in MANIFEST["fixtures"]))
        assert covered >= {"sched", "timing", "faults", "breakers", "adversary", "defenses"}
        assert {version for entry in MANIFEST["fixtures"] for version in entry["also_versions"]} == {1, 2}


class TestLegacyResumeReplaysItsTrace:
    @pytest.mark.parametrize("entry, version", CASES)
    def test_resume_replays_the_rest_of_the_crawl(self, datasets, entry, version, tmp_path):
        dataset = datasets[bool(entry.get("cued"))]
        label = f"{entry['file']} read as v{version}"
        resumed = _trace(dataset, entry, _fixture_path(entry, version, tmp_path))
        if entry.get("golden"):
            expected = read_golden_trace(GOLDEN_FIXTURE_DIR / entry["golden"])[1]
        else:
            expected = _trace(dataset, entry)
        divergence = first_divergence(expected[CUT:], resumed)
        assert divergence is None, f"{label}: {divergence}"
        assert len(resumed) == entry["suffix_pages"]
        assert _digest(resumed) == entry["suffix_sha256"], (
            f"{label}: the resumed tail equals today's uninterrupted run but not "
            "the run of the commit that wrote the file"
        )

    def _assert_drains_as_recorded(self, frontier, entry, version, tmp_path):
        state = read_checkpoint(_fixture_path(entry, version, tmp_path))
        frontier.restore(state.frontier, state.urls)
        pops = []
        while frontier:
            candidate = frontier.pop()
            pops.append(
                [candidate.url, candidate.priority, candidate.distance, candidate.referrer]
            )
        assert len(pops) == entry["drain_length"]
        assert _digest(pops) == entry["drain_sha256"]

    @pytest.mark.parametrize(
        "entry, version",
        [
            pytest.param(entry, version, id=f"v{version}")
            for version, manifest in ((3, MANIFEST), (4, V4_MANIFEST), (5, V5_MANIFEST))
            for entry in manifest["fixtures"]
            if entry["frontier_kind"] == "reprioritizable"
        ],
    )
    def test_reprioritizable_frontier_drains_in_the_recorded_order(self, entry, version, tmp_path):
        """Frontier level: the upgraded section, restored and drained,
        pops every candidate — all four fields — in the order the
        recording commit's own restore popped them."""
        self._assert_drains_as_recorded(ReprioritizableFrontier(), entry, version, tmp_path)

    @pytest.mark.parametrize(
        "entry",
        [
            pytest.param(entry, id=entry["file"].removesuffix(".v5.ckpt"))
            for entry in V5_MANIFEST["fixtures"]
            if entry["frontier_kind"] == "priority"
        ],
    )
    def test_heap_layout_priority_frontier_drains_in_the_recorded_order(self, entry, tmp_path):
        """The same for the four priority frontiers the heap wrote: the
        band frontier sorts their rows into the heap's pop order."""
        self._assert_drains_as_recorded(PriorityFrontier(), entry, 5, tmp_path)
