"""Pinned results of partitioned crawls on the golden web.

A partitioned crawl (``SessionConfig(parallel=ParallelConfig(P, mode))``)
reports one :class:`~repro.core.parallel.ParallelResult`: pages, covered
relevant pages, message tallies and the per-partition page counts.  The
checked-in ``fixtures/partitions/results.json`` holds every field of that
result for a matrix of cells, each a function of (ordering, mode, P,
fault scenario, page cap) on the golden web:

- seven orderings (breadth-first, soft, hard, limited-distance n=2,
  backlink-count, pdd-hybrid and distilled-soft, the one ordering that
  overrides ``tick``) × EXCHANGE / FIREWALL × P ∈ {1, 2, 4, 8} ×
  {clean, faulty} × page cap {None, 300};
- a breaker matrix: three orderings × both modes × P ∈ {2, 4, 8} under
  heavy faults, six host outages and a breaker that opens on the first
  failure and cools down within 15 pops.  Its cells tell the breaker
  clocks apart: each partition's breakers count that partition's own
  pops, and a global pop count would move most of them.

The counts cannot see order: two crawls that fetch the same pages in
another order report the same result.  So ``fixtures/partitions/
fetch_digests.json`` holds, per cell, the sha256 of the URLs the crawl
fetched, in fetch order, as ``on_fetch`` saw them; each cell's one run
is checked against both files.

Each fixture's header names the commit that wrote it.  They are pins,
not goldens to regenerate: a change to any cell is a change to what a
partitioned crawl fetches.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.api import run_crawl
from repro.core.parallel import ParallelConfig, PartitionMode
from repro.core.session import CrawlRequest, SessionConfig
from repro.experiments.golden import golden_dataset
from repro.faults import (
    BreakerPolicy,
    FaultModel,
    FaultProfile,
    HostOutage,
    ResilienceConfig,
)
from repro.urlkit.normalize import url_host

FIXTURE = Path(__file__).parent / "fixtures" / "partitions" / "results.json"
DIGEST_FIXTURE = FIXTURE.with_name("fetch_digests.json")

#: ``tests/test_parallel_accounting.py``'s fault profile.
FAULTY_PROFILE = FaultProfile(transient_error_rate=0.4, timeout_rate=0.2, truncation_rate=0.2)

#: The breaker scenario's background faults and outage length.
BREAKER_PROFILE = FaultProfile(transient_error_rate=0.3, timeout_rate=0.2)
OUTAGE_FETCHES = 400
OUTAGE_HOSTS = 6


def busiest_hosts(dataset, count: int = OUTAGE_HOSTS) -> list[str]:
    """The ``count`` hosts with the most captured URLs (ties by name)."""
    pages = Counter(url_host(url) for url in dataset.crawl_log.urls())
    return sorted(pages, key=lambda host: (-pages[host], host))[:count]


def scenario(name: str, dataset) -> dict:
    """The :class:`SessionConfig` fields of fault scenario ``name``."""
    if name == "clean":
        return {}
    if name == "faulty":
        return {"faults": FaultModel(profile=FAULTY_PROFILE, seed=7)}
    assert name == "breakers"
    outages = tuple(
        HostOutage(host, start=100 * index, end=100 * index + OUTAGE_FETCHES)
        for index, host in enumerate(busiest_hosts(dataset))
    )
    return {
        "faults": FaultModel(profile=BREAKER_PROFILE, outages=outages, seed=7),
        "resilience": ResilienceConfig(breaker=BreakerPolicy(error_budget=1, cooldown_pops=15)),
    }


def cell_id(cell: dict) -> str:
    params = "".join(f"-{key}{value}" for key, value in sorted(cell["params"].items()))
    cap = "all" if cell["max_pages"] is None else f"cap{cell['max_pages']}"
    return (
        f"{cell['ordering']}{params}-{cell['mode']}-p{cell['partitions']}-"
        f"{cell['scenario']}-{cap}"
    )


def result_fields(result) -> dict:
    """Every :class:`ParallelResult` field, as JSON values."""
    fields = asdict(result)
    fields["mode"] = result.mode.value
    fields["per_crawler_pages"] = list(result.per_crawler_pages)
    return fields


def run_cell(dataset, cell: dict):
    """The cell's :class:`ParallelResult` and the sha256 of its fetch
    sequence: every fetched URL, in fetch order, one per line."""
    fetched = hashlib.sha256()
    config = SessionConfig(
        parallel=ParallelConfig(
            partitions=cell["partitions"], mode=PartitionMode(cell["mode"])
        ),
        max_pages=cell["max_pages"],
        on_fetch=lambda event: fetched.update(f"{event.url}\n".encode("utf-8")),
        **scenario(cell["scenario"], dataset),
    )
    request = CrawlRequest(dataset=dataset, strategy=cell["ordering"], params=cell["params"])
    return run_crawl(request, config=config), fetched.hexdigest()


PIN = json.loads(FIXTURE.read_text(encoding="utf-8"))
CELLS = PIN["cells"]
DIGESTS = json.loads(DIGEST_FIXTURE.read_text(encoding="utf-8"))["digests"]


@pytest.fixture(scope="module")
def dataset():
    return golden_dataset()


def test_fixture_covers_both_matrices():
    scenarios = Counter(cell["scenario"] for cell in CELLS)
    assert scenarios == {"clean": 112, "faulty": 112, "breakers": 18}
    assert len({cell_id(cell) for cell in CELLS}) == len(CELLS)
    assert sorted(DIGESTS) == sorted(cell_id(cell) for cell in CELLS)


@pytest.mark.parametrize("cell", CELLS, ids=cell_id)
def test_partitioned_result_matches_pin(dataset, cell):
    result, fetched = run_cell(dataset, cell)
    assert result_fields(result) == cell["result"]
    assert fetched == DIGESTS[cell_id(cell)]
