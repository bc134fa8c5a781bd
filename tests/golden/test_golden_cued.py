"""Golden differential for the cue-reading orderings.

``pdd-hybrid``, ``pal-content-link`` and ``infospiders`` rank links by
the link contexts the visitor hands them, so how those contexts are
produced — cue byte in closed form, text for a mixed-script around
window — shows up in the fetch order.  The fixtures under
``fixtures/cued/`` were recorded when every context was synthesized as
text and scored character by character; each must replay byte-identically
from the in-memory log, from a :class:`~repro.webspace.store.PageStore`
(the ``link_cues`` column), and killed + resumed at a checkpoint.

Regenerate (with the rest of the matrix) via
``python -m repro.experiments.reproduce --regen-golden``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.session import SessionConfig
from repro.errors import CheckpointError
from repro.experiments.datasets import open_dataset_store
from repro.experiments.golden import (
    CUED_FIXTURE_DIR,
    GOLDEN_MAX_PAGES,
    cued_golden_dataset,
    cued_golden_strategies,
    first_divergence,
    read_golden_trace,
    record_golden_trace,
)
from repro.experiments.runner import run_strategy

from conftest import CUED_STORE_FIXTURE

DIFF_DIR = Path(__file__).parent / "diffs"

STRATEGY_NAMES = sorted(cued_golden_strategies())


@pytest.fixture(scope="module")
def memory_dataset():
    return cued_golden_dataset()


@pytest.fixture(scope="module")
def store_dataset():
    dataset = open_dataset_store(CUED_STORE_FIXTURE)
    yield dataset
    dataset.crawl_log.close()


@pytest.fixture(params=["memory", "store"])
def dataset(request):
    return request.getfixturevalue(f"{request.param}_dataset")


def _assert_matches(label: str, expected: list[dict], actual: list[dict]) -> None:
    divergence = first_divergence(expected, actual)
    if divergence is not None:
        DIFF_DIR.mkdir(parents=True, exist_ok=True)
        dumped = DIFF_DIR / f"{label}.actual.jsonl"
        with open(dumped, "w", encoding="utf-8") as handle:
            for row in actual:
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        pytest.fail(f"{label}: {divergence}\nactual trace written to {dumped}")


class TestFixtureIntegrity:
    def test_fixtures_are_exactly_the_cued_matrix(self):
        assert sorted(path.stem for path in CUED_FIXTURE_DIR.glob("*.jsonl")) == STRATEGY_NAMES

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_header_consistent(self, name):
        header, rows = read_golden_trace(CUED_FIXTURE_DIR / f"{name}.jsonl")
        assert header["strategy"] == name
        assert header["profile"].endswith("-cued")
        assert header["pages"] == len(rows) == GOLDEN_MAX_PAGES

    def test_traces_distinguish_strategies(self):
        sequences = {
            name: tuple(row["url"] for row in read_golden_trace(CUED_FIXTURE_DIR / f"{name}.jsonl")[1])
            for name in STRATEGY_NAMES
        }
        assert len(set(sequences.values())) == len(sequences)


class TestCuedGoldenDifferential:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_trace_matches_golden(self, dataset, request, name):
        _, expected = read_golden_trace(CUED_FIXTURE_DIR / f"{name}.jsonl")
        actual = record_golden_trace(dataset, cued_golden_strategies()[name]())
        _assert_matches(f"cued-{request.node.callspec.params['dataset']}-{name}", expected, actual)

    def test_store_serves_the_cue_column(self, store_dataset):
        assert store_dataset.crawl_log.link_cue_row(0) is not None


class TestCuedKillResume:
    """Checkpoint every 250 pages, kill at 600, resume to the cap."""

    def test_pdd_hybrid_refuses_to_checkpoint(self, dataset, tmp_path):
        """It keeps per-URL backlink/content tables across pages and no
        checkpoint section carries strategy state: a resumed run used to
        re-rank from empty tables and diverge at step 505 (ROADMAP item
        4(c)).  Until a ``strategy`` section exists, that is an error."""
        config = SessionConfig(
            max_pages=600, checkpoint_every=250, checkpoint_path=tmp_path / "pdd.ckpt"
        )
        with pytest.raises(CheckpointError, match="pdd-hybrid.*cross-page tables"):
            run_strategy(dataset, cued_golden_strategies()["pdd-hybrid"](), config)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", [name for name in STRATEGY_NAMES if name != "pdd-hybrid"])
    def test_interrupted_plus_resumed_equals_fixture(self, dataset, name, tmp_path):
        _, expected = read_golden_trace(CUED_FIXTURE_DIR / f"{name}.jsonl")
        factory = cued_golden_strategies()[name]
        path = tmp_path / f"{name}.ckpt"

        def record(**kwargs) -> list[dict]:
            rows: list[dict] = []
            run_strategy(
                dataset,
                factory(),
                SessionConfig(
                    on_fetch=lambda event: rows.append(
                        {"step": event.step, "url": event.url, "relevant": event.judgment.relevant}
                    ),
                    **kwargs,
                ),
            )
            return rows

        # The file covers 500 steps; a real kill loses the tail past it.
        prefix = record(max_pages=600, checkpoint_every=250, checkpoint_path=path)[:500]
        suffix = record(max_pages=GOLDEN_MAX_PAGES, resume_from=path)
        divergence = first_divergence(expected, prefix + suffix)
        assert divergence is None, f"{name} (kill/resume): {divergence}"
