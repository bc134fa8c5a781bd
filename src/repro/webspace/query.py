"""Crawl-log query and transform operations.

Datasets are crawl logs; working with them — slicing a national subset
out of a larger crawl, merging two capture sessions, sampling a pilot
corpus, diffing snapshots — needs set-algebra over logs.  These
functions provide it, always producing *consistent* logs: a filtered
log's outlinks may dangle (that is how real sub-crawls look and the
virtual web space answers dangling fetches with 404s), but records are
never duplicated and never mutated.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from repro.charset.languages import Language
from repro.errors import CrawlLogError
from repro.urlkit.normalize import url_host
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord

#: A record predicate.
Predicate = Callable[[PageRecord], bool]


def filter_log(crawl_log: CrawlLog, predicate: Predicate) -> CrawlLog:
    """Records satisfying ``predicate``, in original order."""
    return CrawlLog(record for record in crawl_log if predicate(record))


def by_language(language: Language, declared: bool = True) -> Predicate:
    """Predicate: page is in ``language`` (declared charset or truth)."""

    def check(record: PageRecord) -> bool:
        judged = record.declared_language if declared else record.true_language
        return judged is language

    return check


def by_host_suffix(suffix: str) -> Predicate:
    """Predicate: page's host ends with ``suffix`` (e.g. ``".th"``)."""

    def check(record: PageRecord) -> bool:
        return url_host(record.url).endswith(suffix)

    return check


def ok_html() -> Predicate:
    """Predicate: successfully fetched HTML page."""
    return lambda record: record.ok and record.is_html


def merge_logs(*logs: CrawlLog, on_conflict: str = "first") -> CrawlLog:
    """Union of several crawl logs.

    Args:
        on_conflict: what to do when the same URL appears in more than
            one log with *different* records — ``"first"`` keeps the
            earliest log's record, ``"error"`` raises.  Identical
            records merge silently either way.
    """
    if on_conflict not in ("first", "error"):
        raise CrawlLogError(f"on_conflict must be 'first' or 'error', got {on_conflict!r}")
    merged = CrawlLog()
    for log in logs:
        for record in log:
            existing = merged.get(record.url)
            if existing is None:
                merged.add(record)
            elif existing != record and on_conflict == "error":
                raise CrawlLogError(f"conflicting records for {record.url!r}")
    return merged


def sample_log(crawl_log: CrawlLog, fraction: float, seed: int = 0) -> CrawlLog:
    """A deterministic uniform sample of the log's records.

    Useful for pilot runs; note that sampling breaks link closure (the
    sample's outlinks mostly dangle), which is fine for classifier and
    statistics work but not for crawl replays.
    """
    if not 0.0 < fraction <= 1.0:
        raise CrawlLogError(f"fraction must be in (0, 1], got {fraction}")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(crawl_log)) < fraction
    return CrawlLog(record for record, kept in zip(crawl_log, keep) if kept)


@dataclass(frozen=True, slots=True)
class LogDiff:
    """Difference between two crawl-log snapshots."""

    only_in_first: tuple[str, ...]
    only_in_second: tuple[str, ...]
    changed: tuple[str, ...]
    unchanged_count: int

    @property
    def identical(self) -> bool:
        return not (self.only_in_first or self.only_in_second or self.changed)


def diff_logs(first: CrawlLog, second: CrawlLog) -> LogDiff:
    """Compare two snapshots URL by URL."""
    only_first: list[str] = []
    changed: list[str] = []
    unchanged = 0
    for record in first:
        other = second.get(record.url)
        if other is None:
            only_first.append(record.url)
        elif other != record:
            changed.append(record.url)
        else:
            unchanged += 1
    only_second = [record.url for record in second if record.url not in first]
    return LogDiff(
        only_in_first=tuple(only_first),
        only_in_second=tuple(only_second),
        changed=tuple(changed),
        unchanged_count=unchanged,
    )


def host_partition(crawl_log: CrawlLog, partitions: int) -> list[CrawlLog]:
    """Split a log into ``partitions`` host-disjoint sub-logs.

    Pages of one host always land in the same partition (hash of the
    host) — the standard URL-space partitioning of parallel crawlers,
    used by :mod:`repro.core.parallel`.
    """
    if partitions < 1:
        raise CrawlLogError("partitions must be >= 1")
    buckets: list[list[PageRecord]] = [[] for _ in range(partitions)]
    for record in crawl_log:
        index = host_bucket(record.url, partitions)
        buckets[index].append(record)
    return [CrawlLog(bucket) for bucket in buckets]


def host_bucket(url: str, partitions: int) -> int:
    """Stable host → partition mapping (FNV-1a over the host string).

    Process-independent by construction (unlike Python's ``hash``, which
    is salted per interpreter), so partition ownership agrees between a
    driver and its worker processes — :mod:`repro.core.parallel` and the
    :mod:`repro.exec` task specs both rely on this.
    """
    host = url_host(url)
    digest = 2166136261
    for char in host.encode("ascii", errors="replace"):
        digest = ((digest ^ char) * 16777619) & 0xFFFFFFFF
    return digest % partitions
