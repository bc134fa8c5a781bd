"""The summary protocol shared by sequential and parallel crawl results.

:class:`~repro.core.session.CrawlResult` and
:class:`~repro.core.parallel.ParallelResult` report different details
(metric series vs partition accounting), but every consumer that just
wants "how did the run go" needs the same three things.  This protocol
names them, so report code — ``summary_rows`` in
:mod:`repro.experiments.runner`, the CLI tables — renders either result
type without isinstance checks.
"""

from __future__ import annotations

from typing import Protocol


class CrawlReport(Protocol):
    """What any finished crawl can tell a report.

    - ``pages_crawled`` — total fetches performed;
    - ``coverage`` — fraction of the dataset's relevant pages found;
    - ``to_dict()`` — the run's headline numbers as a flat,
      JSON-serialisable dict (one table row).
    """

    @property
    def pages_crawled(self) -> int: ...

    @property
    def coverage(self) -> float: ...

    def to_dict(self) -> dict: ...
