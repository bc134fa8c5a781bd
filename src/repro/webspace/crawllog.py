"""The in-memory crawl log.

A :class:`CrawlLog` is the frozen snapshot the simulator replays — the
paper's "database of crawl logs ... acquired by actually crawling the Web".
Ours are synthesized, but the log does not care where records came from.

It has no file format of its own: on disk a crawl log is a columnar page
store (:mod:`repro.webspace.store`), and
:func:`repro.experiments.datasets.read_dataset` reads one into a
:class:`CrawlLog`.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator

from repro.charset.languages import Language
from repro.errors import CrawlLogError, UnknownPageError
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set


class CrawlLog:
    """In-memory crawl-log store keyed by normalised URL.

    Insertion order is preserved (it is the generator's emission order,
    which tests rely on for determinism checks).  Duplicate URLs are an
    error: a crawl log is a snapshot, so each URL has exactly one record.
    """

    def __init__(self, pages: Iterable[PageRecord] = ()) -> None:
        self._pages: dict[str, PageRecord] = {}
        self._relevant: dict[Language, frozenset[str]] = {}
        for page in pages:
            self.add(page)

    # -- mutation ----------------------------------------------------------

    def add(self, page: PageRecord) -> None:
        """Insert a record; raises :class:`CrawlLogError` on duplicates."""
        if page.url in self._pages:
            raise CrawlLogError(f"duplicate crawl-log record for {page.url!r}")
        self._pages[page.url] = page
        self._relevant.clear()

    def relevant_url_view(self, target_language: Language) -> frozenset[str]:
        """The coverage denominator, scanned once per language until :meth:`add`."""
        view = self._relevant.get(target_language)
        if view is None:
            view = self._relevant[target_language] = relevant_url_set(self, target_language)
        return view

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, url: str) -> bool:
        return url in self._pages

    def __iter__(self) -> Iterator[PageRecord]:
        return iter(self._pages.values())

    def get(self, url: str) -> PageRecord | None:
        """The record for ``url``, or None if the URL was never captured."""
        return self._pages.get(url)

    @property
    def lookup(self) -> Callable[[str], PageRecord | None]:
        """:meth:`get` as the record dict's own bound method: the same
        answer without a Python frame per call (the fetch path's)."""
        return self._pages.get

    def __getitem__(self, url: str) -> PageRecord:
        try:
            return self._pages[url]
        except KeyError:
            raise UnknownPageError(url) from None

    def urls(self) -> Iterator[str]:
        return iter(self._pages.keys())
