"""Web-space evolution between archive snapshots.

A national archive recrawls periodically; between snapshots the web
churns — pages die, new pages appear, link lists change.  The paper's
group built exactly this follow-up (Tamura & Kitsuregawa's incremental
crawler for large-scale web archives, DEWS 2007); this module supplies
the substrate for studying it on synthetic data:

:func:`evolve_log` derives snapshot *t+1* from snapshot *t* with three
independent churn knobs.  Evolution is deterministic in the seed and
preserves the invariants the simulator relies on (unique URLs, outlinks
only on OK HTML pages, no self-links).

It is the seam for the parked ROADMAP item *Incremental recrawl /
changing web*; today only ``benchmarks/bench_ext_incremental.py`` and
its unit tests drive it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigError
from repro.urlkit.normalize import url_host
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord


@dataclass(frozen=True, slots=True)
class ChurnSpec:
    """Per-interval churn rates.

    Attributes:
        death_rate: fraction of previously-OK pages now answering 404
            (their inlinks become dead links — they stay in others'
            outlink lists, exactly like the real web).
        birth_rate: new pages per existing OK HTML page; each new page
            appears on an existing host, inherits the host's dominant
            look (charset/language copied from a sibling) and gets
            linked from that sibling.
        relink_rate: fraction of surviving OK HTML pages whose outlink
            list is perturbed (one link dropped and/or one link to a
            random same-snapshot page added).
    """

    death_rate: float = 0.05
    birth_rate: float = 0.08
    relink_rate: float = 0.10

    def validate(self) -> None:
        for name in ("death_rate", "birth_rate", "relink_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")


def evolve_log(crawl_log: CrawlLog, churn: ChurnSpec, seed: int = 0) -> CrawlLog:
    """Derive the next snapshot of ``crawl_log`` under ``churn``."""
    churn.validate()
    rng = np.random.default_rng(seed)
    records = list(crawl_log)
    all_urls = [record.url for record in records]

    # -- deaths -------------------------------------------------------------
    ok_indices = [index for index, record in enumerate(records) if record.ok]
    death_draws = rng.random(len(ok_indices))
    dead: set[int] = {
        index for index, draw in zip(ok_indices, death_draws) if draw < churn.death_rate
    }
    evolved: list[PageRecord] = []
    for index, record in enumerate(records):
        if index in dead:
            evolved.append(
                replace(record, status=404, charset=None, outlinks=(), size=0)
            )
        else:
            evolved.append(record)

    # -- relinks ------------------------------------------------------------
    for index, record in enumerate(evolved):
        if not record.ok or not record.is_html:
            continue
        if rng.random() >= churn.relink_rate:
            continue
        outlinks = list(record.outlinks)
        if outlinks and rng.random() < 0.5:
            outlinks.pop(int(rng.integers(0, len(outlinks))))
        target = all_urls[int(rng.integers(0, len(all_urls)))]
        if target != record.url and target not in outlinks:
            outlinks.append(target)
        evolved[index] = replace(record, outlinks=tuple(outlinks))

    # -- births -------------------------------------------------------------
    parents = [
        index
        for index, record in enumerate(evolved)
        if record.ok and record.is_html
    ]
    n_births = int(len(parents) * churn.birth_rate)
    if n_births and parents:
        chosen = rng.choice(parents, size=n_births)
        for birth_index, parent_index in enumerate(chosen):
            parent = evolved[int(parent_index)]
            host = url_host(parent.url)
            url = f"http://{host}/new/{seed}-{birth_index}.html"
            newborn = PageRecord(
                url=url,
                status=200,
                charset=parent.charset,
                true_language=parent.true_language,
                outlinks=(parent.url,),
                size=max(256, parent.size),
            )
            evolved.append(newborn)
            evolved[int(parent_index)] = replace(
                parent, outlinks=(*parent.outlinks, url)
            )

    return CrawlLog(evolved)
