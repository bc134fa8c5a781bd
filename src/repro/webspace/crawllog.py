"""Crawl-log storage.

A :class:`CrawlLog` is the frozen snapshot the simulator replays — the
paper's "database of crawl logs ... acquired by actually crawling the Web".
Ours are synthesized, but the store does not care where records came from.

On-disk format: one JSON object per line, with a header line carrying the
format name and version so future revisions stay detectable.  Files ending
in ``.gz`` are transparently gzip-compressed.
"""

from __future__ import annotations

import gzip
import json
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import IO

from repro.charset.languages import Language
from repro.errors import CrawlLogError, UnknownPageError
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set

_FORMAT_NAME = "repro-lswc-crawllog"
_FORMAT_VERSION = 1


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

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the log to ``path`` (gzip when the suffix is ``.gz``)."""
        path = Path(path)
        with _open_write(path) as handle:
            header = {"format": _FORMAT_NAME, "version": _FORMAT_VERSION, "pages": len(self)}
            handle.write(json.dumps(header) + "\n")
            for page in self:
                handle.write(json.dumps(page.to_json_dict(), separators=(",", ":")) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "CrawlLog":
        """Read a log written by :meth:`save`.

        Raises:
            CrawlLogError: on a missing/invalid header, unsupported
                version, or malformed record line.
        """
        path = Path(path)
        log = cls()
        with _open_read(path) as handle:
            header_line = handle.readline()
            if not header_line:
                raise CrawlLogError(f"{path}: empty crawl-log file")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise CrawlLogError(f"{path}: malformed header: {exc}") from exc
            if header.get("format") != _FORMAT_NAME:
                raise CrawlLogError(f"{path}: not a crawl-log file (format={header.get('format')!r})")
            if header.get("version") != _FORMAT_VERSION:
                raise CrawlLogError(f"{path}: unsupported version {header.get('version')!r}")
            for line_number, line in enumerate(handle, start=2):
                if not line.strip():
                    continue
                try:
                    log.add(PageRecord.from_json_dict(json.loads(line)))
                except (json.JSONDecodeError, KeyError, ValueError, CrawlLogError) as exc:
                    raise CrawlLogError(f"{path}:{line_number}: malformed record: {exc}") from exc
        return log


def _open_write(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "wt", encoding="utf-8")
    return open(path, "w", encoding="utf-8")


def _open_read(path: Path) -> IO[str]:
    if path.suffix == ".gz":
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")
