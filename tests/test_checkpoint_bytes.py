"""Checkpoint contents pinned: the file a golden crawl writes does not drift.

Each of the seven golden configurations checkpoints at step 300, and
soft-focused once more through ``checkpoint_every`` in the middle of a
one-shot run (step 1000).  At both points the queue's head is part of a
page's links of which some were already popped, so a queue that holds a
page's links as one entry has to write the unpopped rest, row by row,
exactly where the per-candidate queue had them.  The sha256 of every
file's contents is pinned.

The URL table of a checkpoint lists the scheduled set in its iteration
order, which follows the interpreter's string hashes and its set
internals, so the raw bytes differ between interpreters and hash seeds.
What is hashed is the file read back with every frontier position
(``u``, ``r``) replaced by its URL, the scheduled set sorted, and every
other section as it was written: a frontier row out of place still
changes the digest, an interpreter's set order does not.  Run this file
as a script to print the digests it pins.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from conftest import plain_columns

#: sha256 of each checkpoint's contents, by golden configuration (``@1000`` the
#: one written mid-run by ``checkpoint_every``).
PINNED = {
    "breadth-first": "032ade19c6371c90f46b4e485554e96809133094e791af155bc74cef1e33354a",
    "hard-focused": "4c06778dd2c231de50f39d92054a0cad48be4b97d6f9c23e3f6b17374b7a4a67",
    "limited-distance-n1": "3743ae8c58b5fc8ccc7fcd76eb658a10bbf93b66a07bb55bfe9b3c5112614518",
    "limited-distance-n1-prioritized": (
        "c52d42e016fd1d2d263dad144d8aa796ea91ad95989a2fa99e2fdb14c4ea0d8f"
    ),
    "limited-distance-n2": "ee945157c929ba003353e78d50a2773f2ba1c469a0ce4b14e539eac634c75208",
    "limited-distance-n2-prioritized": (
        "e578aa288017f52b13ab0ca8c996972f8b9b7ad6e535959b73cef9c2b13239a6"
    ),
    "soft-focused": "1ca6794ec9cec0edbb1b1053454afa6dcdfd240dcc008d35022638dbabb86f1c",
    "soft-focused@1000": "d339bb7b6c7c7424e82a05d8fcdc0f7d3d6c1eff924534c801149a3ddbfb2151",
}

#: The step each configuration checkpoints at, and the mid-run one.
STEP = 300
MID_RUN = ("soft-focused", 1000)


def contents_digest(path: Path) -> str:
    """sha256 of a checkpoint's contents, whatever order its URL table has."""
    from repro.core.checkpoint import read_checkpoint

    state = read_checkpoint(path)
    urls = state.urls
    sections = dict(state.sections())
    frontier = plain_columns(state.frontier)
    frontier["u"] = [urls[position] for position in frontier["u"]]
    frontier["r"] = [None if position < 0 else urls[position] for position in frontier["r"]]
    sections["frontier"] = frontier
    sections["scheduled"] = sorted(urls[: state.scheduled])
    sections["urls"] = urls[state.scheduled :]
    contents = {"strategy": state.strategy, "steps": state.steps, **sections}
    return hashlib.sha256(json.dumps(contents, sort_keys=True).encode()).hexdigest()


def checkpoint_digests() -> dict[str, str]:
    """Write every pinned checkpoint and return its sha256, by name."""
    from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
    from repro.experiments.golden import GOLDEN_MAX_PAGES, golden_dataset, golden_strategies

    dataset = golden_dataset()
    strategies = golden_strategies()
    digests = {}
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "golden.ckpt"
        for name, factory in sorted(strategies.items()):
            request = CrawlRequest(dataset=dataset, strategy=factory())
            session = CrawlSession(request, SessionConfig(max_pages=GOLDEN_MAX_PAGES)).open()
            session.step(STEP)
            session.save_checkpoint(path)
            digests[name] = contents_digest(path)
            session.close()
        name, step = MID_RUN
        request = CrawlRequest(dataset=dataset, strategy=strategies[name]())
        config = SessionConfig(
            max_pages=GOLDEN_MAX_PAGES, checkpoint_every=step, checkpoint_path=path
        )
        CrawlSession(request, config).run()
        digests[f"{name}@{step}"] = contents_digest(path)
    return digests


@pytest.mark.parametrize(("name", "step"), [("breadth-first", STEP), MID_RUN])
def test_the_pinned_checkpoints_catch_a_run_partly_popped(name, step):
    """The premise of the pins: the queue's head entry is a page's links,
    some popped and some not, when the checkpoint is written."""
    from repro.core.frontier import FIFOFrontier, _Rows
    from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
    from repro.experiments.golden import golden_dataset, golden_strategies

    request = CrawlRequest(dataset=golden_dataset(), strategy=golden_strategies()[name]())
    session = CrawlSession(request, SessionConfig()).open()
    session.step(step)
    frontier = session.frontier
    if isinstance(frontier, FIFOFrontier):
        head = frontier._queue[0]
    else:
        head = frontier._bands[frontier._keys[0]][0]
    assert type(head) is _Rows and head.columns is None
    assert 0 < head.left < head.stop


def test_checkpoint_contents_are_pinned():
    assert checkpoint_digests() == PINNED


if __name__ == "__main__":
    print(json.dumps(checkpoint_digests(), indent=1, sort_keys=True))
