"""Virtual web space substrate (paper §4).

The Web Crawling Simulator is *trace-driven*: a crawl log captured from
the real Web (here: synthesized by :mod:`repro.graphgen`) defines a frozen
snapshot, and the :class:`~repro.webspace.virtualweb.VirtualWebSpace`
answers each "download" request with the recorded properties of the page
— HTTP status, charset, outlinks — exactly as the paper describes.

Components:

- :class:`~repro.webspace.page.PageRecord` — one crawl-log entry.
- :class:`~repro.webspace.crawllog.CrawlLog` — the in-memory log.
- :class:`~repro.webspace.store.PageStore` — the same records as a
  columnar file, the one on-disk form of a log.
- :class:`~repro.webspace.linkdb.LinkDB` — forward/backward adjacency.
- :class:`~repro.webspace.virtualweb.VirtualWebSpace` — the request
  interface the simulated crawler talks to.
- :mod:`~repro.webspace.stats` — dataset characteristics (paper Table 3).
"""

from repro.webspace.base import PageSource, WebSpace
from repro.webspace.crawllog import CrawlLog
from repro.webspace.linkdb import LinkDB
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK, PageRecord
from repro.webspace.store import PageStore, StoreBuilder, StoreLinkDB
from repro.webspace.query import (
    diff_logs,
    filter_log,
    host_bucket,
    host_partition,
    merge_logs,
    sample_log,
)
from repro.webspace.stats import DatasetStats, compute_stats
from repro.webspace.virtualweb import FetchResponse, VirtualWebSpace

__all__ = [
    "PageRecord",
    "STATUS_OK",
    "HTML_CONTENT_TYPE",
    "PageSource",
    "WebSpace",
    "CrawlLog",
    "PageStore",
    "StoreBuilder",
    "StoreLinkDB",
    "LinkDB",
    "VirtualWebSpace",
    "FetchResponse",
    "DatasetStats",
    "compute_stats",
    "filter_log",
    "merge_logs",
    "sample_log",
    "diff_logs",
    "host_bucket",
    "host_partition",
]
