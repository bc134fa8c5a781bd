"""Executable-documentation tests.

The tutorial's code blocks must actually run — documentation that breaks
is worse than none.  Blocks are executed in order in one shared
namespace, exactly as a reader would paste them; only the final
"scale up" block is skipped (it launches a full reproduction).
"""

import re
from pathlib import Path

import pytest

TUTORIAL = Path(__file__).parent.parent / "docs" / "tutorial.md"

_CODE_BLOCK_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def tutorial_blocks() -> list[str]:
    return _CODE_BLOCK_RE.findall(TUTORIAL.read_text())


class TestTutorial:
    def test_tutorial_exists_with_code(self):
        blocks = tutorial_blocks()
        assert len(blocks) >= 5

    def test_tutorial_blocks_execute(self, capsys):
        namespace: dict = {}
        for block in tutorial_blocks():
            if "reproduce_all" in block:
                continue  # the scale-up block runs a full reproduction
            exec(compile(block, str(TUTORIAL), "exec"), namespace)  # noqa: S102

        # Spot-check the state the reader ends up with.
        assert namespace["profile"].name == "tutorial"
        # Tutorial profile is illustrative, not calibrated — just check
        # it produced a mixed-language dataset.
        assert 0.05 < namespace["dataset"].stats().relevance_ratio < 0.8
        assert namespace["evidence"].locality_lift > 1.0
        assert len(namespace["results"]) == 4
        strategy_cls = namespace["ArticleFirstStrategy"]

        from repro import SessionConfig
        from repro.experiments.runner import run_strategy

        result = run_strategy(namespace["dataset"], strategy_cls(), SessionConfig(max_pages=300))
        assert result.pages_crawled == 300


class TestReadmeSnippet:
    def test_architecture_doc_mentions_every_frontier(self):
        text = (Path(__file__).parent.parent / "docs" / "architecture.md").read_text()
        for name in (
            "FIFOFrontier",
            "PriorityFrontier",
            "ReprioritizableFrontier",
            "HostQueueFrontier",
            "SpillingFrontier",
        ):
            assert name in text
