"""Columnar, ``pread``-served page store: the out-of-core storage backend.

A :class:`PageStore` holds the same information as an in-memory
:class:`~repro.webspace.crawllog.CrawlLog` — URL, status, content type,
charset, true language, outlinks, size per page — but as fixed-width
numpy columns and flat arenas in one on-disk file.  Opening a store
loads only the fixed-width index columns (~30 bytes/page); the
variable-length arenas are read per request with ``os.pread``.  Opening
the uncaptured Thai ×7.14 store (10⁶ pages) loads 29 MB of index
columns, 68 MB ``ru_maxrss`` in a fresh interpreter, not gigabytes of
Python objects; building that file peaks higher, in the generator's
link phase (:mod:`repro.graphgen.stream`).  Records are materialised
lazily and transiently, by one routine: ``store.get(url)`` builds on
demand a
:class:`~repro.webspace.page.PageRecord` equal, field for field, to the
one the in-memory backend would hold.

On-disk layout (single file, format v2)::

    magic "LSWCPGS2" | u64 header_len | u32 crc32(header) | header JSON | pad to 64
    ----------------------------------------------------------- data start
    status       int*[N]      HTTP status per page
    ctype        int*[N]      content-type table index
    charset      int*[N]      charset table index, -1 = none declared
    lang         int*[N]      true-language table index
    size         int*[N]      body size in bytes
    link_offsets int*[N+1]    CSR row offsets into link_arena
    link_arena   int*[E]      outlink url-ids, deduped, document order
    url_offsets  int*[M+1]    row offsets into url_arena
    url_arena    uint8[...]   UTF-8 URL bytes, concatenated
    url_hash     uint64[M]    sorted 64-bit URL hashes (lookup index)
    url_hash_order int*[M]    url-id of each sorted hash

``int*`` is the narrowest of int8 / int16 / int32 / int64 that holds
the column (:func:`narrowest_int`).  Every section is 64-byte aligned.
The header JSON carries the string tables (content types, charsets,
language labels), the section table (dtype, count, offset relative to
data start, crc32) and a free-form ``meta`` object the dataset layer
uses for profile/seed/capture parameters.  The open checks both crc32
levels, the header's shape, the file size and the index columns'
ranges: a flipped bit or a crafted file is a
:class:`~repro.errors.CrawlLogError` naming the section, never a wrong
page.  Version 1 files (``LSWCPGS1``: every integer int64, no
checksums) are still read, never written.

URL ids: the first ``N`` ids are the pages themselves, in insertion
order (so a page's url-id equals its page-id); ids ``N..M-1`` are
*dangling* link targets — URLs that appear as outlinks but have no
record, which captured datasets are full of.  The flat outlink arena
stores url-ids, which is what lets :class:`StoreLinkDB` and the
frontier's spill file reference pages by id instead of by string.

URL → id lookup is a binary search over the sorted hash column plus a
byte compare in the arena — O(log M) with no resident dict, which is
the difference between "open a store" costing kilobytes and costing a
gigabyte of string hash table at 10⁶ URLs.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from bisect import bisect_left
from collections import deque
from collections.abc import Iterable, Iterator, Sequence, Set as AbstractSet
from itertools import compress, repeat
from operator import is_
from pathlib import Path
from typing import Any, NoReturn

import numpy as np

from repro.charset.languages import Language, language_of_charset
from repro.errors import CrawlLogError, UnknownPageError
from repro.urlkit import normalize
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK, PageRecord, check_link_cues

_MAGIC = b"LSWCPGS2"
_MAGIC_V1 = b"LSWCPGS1"  # all-int64, unchecksummed: read, never written
_FORMAT_NAME = "repro-lswc-pagestore"
_FORMAT_VERSION = 2
_ALIGN = 64

#: Bytes cast, checksummed and written — or read back and checksummed —
#: at a time: no whole-column copy on either side.
_IO_BLOCK = 1 << 20

#: The widths a narrowed section may take, narrowest first.
INT_DTYPES = ("<i1", "<i2", "<i4", "<i8")

#: Fixed section order; (name, dtype).  A ``None`` dtype is the column's
#: :func:`narrowest_int`.  Counts come from the header.
_SECTIONS = (
    ("status", None),
    ("ctype", None),
    ("charset", None),
    ("lang", None),
    ("size", None),
    ("link_offsets", None),
    ("link_arena", None),
    ("url_offsets", None),
    ("url_arena", "|u1"),
    ("url_hash", "<u8"),
    ("url_hash_order", None),
)

#: The sections loaded resident at open, in load order; the arenas stay on disk.
_INDEX_SECTIONS = tuple(name for name, _ in _SECTIONS if name not in ("link_arena", "url_arena"))

#: Optional trailing section: per-link textual-cue bytes, aligned 1:1
#: with link_arena (encoding in :mod:`repro.graphgen.linkcontext`).
#: Present only in stores written from cue-enabled profiles; readers key
#: off the self-describing header.
_LINK_CUES_SECTION = ("link_cues", "|u1")

#: Decoded-URL cache bound: popular link targets (hubs) decode once,
#: cold pages cycle through — the cache must never grow with web size.
#: Eviction is FIFO by first decode, kept as a key queue beside the dict
#: (``next(iter(dict))`` would rescan every tombstone eviction leaves).
_URL_CACHE_MAX = 1 << 16

#: URLs hashed per block while a store is written (bounds the transient
#: per-URL objects: one block's offsets and digests).
_HASH_BLOCK = 1 << 13


def hash_url(url: str) -> int:
    """Deterministic 64-bit hash of a URL (process-independent)."""
    digest = hashlib.blake2b(url.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _align_up(value: int, align: int = _ALIGN) -> int:
    return (value + align - 1) // align * align


def narrowest_int(column: np.ndarray) -> str:
    """The narrowest of ``<i1`` / ``<i2`` / ``<i4`` / ``<i8`` holding every
    value of ``column`` (``<i1`` when it is empty)."""
    if len(column) == 0:
        return INT_DTYPES[0]
    low, high = int(column.min()), int(column.max())
    return next(d for d in INT_DTYPES if np.iinfo(d).min <= low and high <= np.iinfo(d).max)


def _write_column(handle: Any, column: np.ndarray, dtype: np.dtype) -> str:
    """Write ``column`` as ``dtype`` one ``_IO_BLOCK`` at a time; its crc32 as 8 hex digits."""
    crc = 0
    rows = _IO_BLOCK // dtype.itemsize
    for start in range(0, len(column), rows):
        block = np.ascontiguousarray(column[start : start + rows], dtype=dtype)
        crc = zlib.crc32(block, crc)
        handle.write(block)
    return f"{crc:08x}"


def _span_crc(fd: int, start: int, nbytes: int) -> str:
    """crc32 of ``nbytes`` of the file at ``start``, read ``_IO_BLOCK`` at a time."""
    crc = 0
    for at in range(start, start + nbytes, _IO_BLOCK):
        crc = zlib.crc32(os.pread(fd, min(_IO_BLOCK, start + nbytes - at), at), crc)
    return f"{crc:08x}"


def _check_header(path: Path, header: Any, version: int) -> None:
    """The header's shape: every key the reader uses present and typed,
    every section known, with an allowed dtype and the count the page,
    URL and link counts imply.  Anything else names the file and field."""

    def fail(field: str, why: str) -> NoReturn:
        raise CrawlLogError(f"{path}: store header field {field}: {why}")

    if not isinstance(header, dict):
        fail("(root)", "not a JSON object")
    if header.get("format") != _FORMAT_NAME:
        raise CrawlLogError(f"{path}: unexpected format {header.get('format')!r}")
    if header.get("version") != version:
        raise CrawlLogError(f"{path}: unsupported version {header.get('version')!r}")
    for key in ("pages", "urls", "links"):
        if type(header.get(key)) is not int or header[key] < 0:
            fail(key, f"{header.get(key)!r} is not a count")
    for key in ("content_types", "charsets", "languages"):
        table = header.get(key)
        if not isinstance(table, list) or not all(isinstance(value, str) for value in table):
            fail(key, "not a list of strings")
    unknown = set(header["languages"]) - {language.value for language in Language}
    if unknown:
        fail("languages", f"unknown label {sorted(unknown)[0]!r}")
    if not isinstance(header.get("meta", {}), dict):
        fail("meta", "not a JSON object")
    sections = header.get("sections")
    if not isinstance(sections, dict):
        fail("sections", "not a JSON object")
    pages, urls, links = header["pages"], header["urls"], header["links"]
    counts = dict.fromkeys(("status", "ctype", "charset", "lang", "size"), pages)
    counts.update(link_offsets=pages + 1, link_arena=links, link_cues=links,
                  url_offsets=urls + 1, url_arena=None, url_hash=urls, url_hash_order=urls)
    for name in sections.keys() - counts.keys():
        fail(f"sections.{name}", "not a page-store section")
    for name, dtype in (*_SECTIONS, _LINK_CUES_SECTION):
        spec = sections.get(name)
        if spec is None and name == _LINK_CUES_SECTION[0]:
            continue
        if not isinstance(spec, dict):
            fail(f"sections.{name}", "missing" if spec is None else "not a JSON object")
        allowed = INT_DTYPES if dtype is None else (dtype,)
        if spec.get("dtype") not in allowed:
            fail(f"sections.{name}.dtype", f"{spec.get('dtype')!r} is not one of {allowed}")
        for key in ("count", "offset"):
            if type(spec.get(key)) is not int or spec[key] < 0:
                fail(f"sections.{name}.{key}", f"{spec.get(key)!r} is not a count")
        if counts[name] is not None and spec["count"] != counts[name]:
            fail(f"sections.{name}.count", f"{spec['count']}, where the header implies {counts[name]}")
        if version > 1 and not (isinstance(spec.get("crc32"), str) and len(spec["crc32"]) == 8):
            fail(f"sections.{name}.crc32", f"{spec.get('crc32')!r} is not 8 hex digits")
    if urls < pages:  # url ids are pages first
        fail("urls", f"{urls} is fewer than the {pages} pages")


def write_store(
    path: str | Path,
    *,
    status: np.ndarray,
    ctype: np.ndarray,
    charset: np.ndarray,
    lang: np.ndarray,
    size: np.ndarray,
    link_offsets: np.ndarray,
    link_arena: np.ndarray,
    url_offsets: np.ndarray,
    url_arena: np.ndarray | bytes | bytearray,
    content_types: list[str],
    charsets: list[str],
    languages: list[str],
    meta: dict | None = None,
    link_cues: np.ndarray | None = None,
) -> None:
    """Write one page-store file from prepared columns.

    The low-level writer both :class:`StoreBuilder` (record streams) and
    :func:`repro.graphgen.stream.write_universe_store` (generator
    columns, no record objects) sit on.  ``url_offsets`` spans all M
    URLs (pages first, then dangling targets); the hash index is
    computed here so callers never worry about it.  Each URL's
    :func:`hash_url` is its blake2b digest read back as a ``<u8``; the
    digests go into the column a block of ``_HASH_BLOCK`` URLs at a time,
    so no per-URL Python object outlives its block.  Every integer section
    is written in its :func:`narrowest_int`, cast and checksummed a block
    at a time beside the write; the header, sealed last, records each
    section's dtype and crc32.
    """
    path = Path(path)
    n_pages = len(status)
    n_urls = len(url_offsets) - 1
    arena = np.frombuffer(url_arena, dtype=np.uint8) if not isinstance(
        url_arena, np.ndarray
    ) else url_arena.astype(np.uint8, copy=False)
    arena_view = memoryview(arena)  # slices hash in place: no second copy of the arena

    hashes = np.empty(n_urls, dtype="<u8")  # hash_url of each URL: its digest read as "<u8"
    for start in range(0, n_urls, _HASH_BLOCK):
        bounds = url_offsets[start : start + _HASH_BLOCK + 1].tolist()
        digests = b"".join([
            hashlib.blake2b(arena_view[low:high], digest_size=8).digest()
            for low, high in zip(bounds, bounds[1:])
        ])
        hashes[start : start + len(bounds) - 1] = np.frombuffer(digests, dtype="<u8")
    order = np.argsort(hashes, kind="stable").astype(np.int64)
    sorted_hashes = hashes[order]

    columns: dict[str, np.ndarray] = dict(
        status=status, ctype=ctype, charset=charset, lang=lang, size=size,
        link_offsets=link_offsets, link_arena=link_arena, url_offsets=url_offsets,
        url_arena=arena, url_hash=sorted_hashes, url_hash_order=order,
    )
    section_specs = list(_SECTIONS)
    if link_cues is not None:
        columns["link_cues"] = link_cues
        section_specs.append(_LINK_CUES_SECTION)

    sections: dict[str, dict[str, Any]] = {}
    relative = end = 0
    for name, dtype in section_specs:
        column = columns[name] = np.asarray(columns[name])
        dtype = dtype or narrowest_int(column)
        count = int(column.shape[0])
        # crc32 as fixed-width hex: the header keeps its length once they are filled in.
        sections[name] = {"dtype": dtype, "count": count, "offset": relative, "crc32": "0" * 8}
        end = relative + count * np.dtype(dtype).itemsize
        relative = _align_up(end)

    header = {
        "format": _FORMAT_NAME,
        "version": _FORMAT_VERSION,
        "pages": int(n_pages),
        "urls": int(n_urls),
        "links": int(columns["link_arena"].shape[0]),
        "content_types": content_types,
        "charsets": charsets,
        "languages": languages,
        "sections": sections,
        "meta": meta or {},
    }
    header_len = len(json.dumps(header, separators=(",", ":")).encode("utf-8"))
    data_start = _align_up(len(_MAGIC) + 12 + header_len)

    with open(path, "wb") as handle:
        for name, spec in sections.items():  # gaps read back as zeros
            handle.seek(data_start + spec["offset"])
            spec["crc32"] = _write_column(handle, columns[name], np.dtype(spec["dtype"]))
        handle.truncate(data_start + end)  # an empty last section still lies inside the file
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        handle.seek(0)
        handle.write(_MAGIC + struct.pack("<QI", header_len, zlib.crc32(header_bytes)))
        handle.write(header_bytes)


class PageStore:
    """On-disk columnar page store (a :class:`PageSource`).

    Opened read-only.  The fixed-width index columns (status, tables,
    sizes, CSR offsets, the URL hash index) are loaded into plain numpy
    arrays — ~30 bytes per page, the part you hold — while the two
    variable-length arenas (URL bytes, outlink rows), which dominate the
    file, stay on disk and are served per request with ``os.pread``.
    Positioned reads go through the kernel page cache but are never
    mapped into the process, so resident memory stays flat no matter
    how much of the web a crawl touches.  (``mmap`` is the obvious
    alternative and was the first implementation; current kernels fault
    large folios around every touched page, which balloons a random-
    access crawl's RSS to the whole file within a few thousand fetches,
    ``MADV_RANDOM`` notwithstanding.)

    Implements the exact read API of
    :class:`~repro.webspace.crawllog.CrawlLog` (len / contains / iter /
    get / getitem / urls), which is what lets
    :class:`~repro.webspace.virtualweb.VirtualWebSpace`, the stats and
    coverage helpers, and checkpoint record re-attachment run unchanged
    over either backend.  The crawl enters through :meth:`fetch_record`,
    which hands out ids and verifies the hint it is given; every record is
    built by :meth:`_materialise`; every URL string is decoded, and interned,
    by :meth:`_decode_urls`, handed only what the URL cache does not hold:
    a page's misses in one call, :meth:`url_of`'s one id in another.
    """

    def __init__(self, path: str | Path) -> None:
        path = Path(path)
        self.path = path
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise CrawlLogError(f"{path}: cannot open page store: {exc}") from exc
        with handle:
            magic = handle.read(len(_MAGIC))
            if magic not in (_MAGIC, _MAGIC_V1):
                raise CrawlLogError(f"{path}: not a page-store file (magic={magic!r})")
            version = 1 if magic == _MAGIC_V1 else 2
            want = 8 if version == 1 else 12  # u64 header_len [, u32 crc32(header)]
            fields = handle.read(want)
            file_size = os.fstat(handle.fileno()).st_size
            header_len = int.from_bytes(fields[:8], "little")
            header_end = len(_MAGIC) + want + header_len
            if len(fields) < want or header_end > file_size:
                short = f"header ends at byte {header_end} of a {file_size}-byte file"
                raise CrawlLogError(f"{path}: truncated page store: {short}")
            raw = handle.read(header_len)
        if version > 1 and zlib.crc32(raw) != int.from_bytes(fields[8:], "little"):
            raise CrawlLogError(f"{path}: header fails its checksum")
        try:
            header = json.loads(raw)
        except ValueError as exc:
            raise CrawlLogError(f"{path}: malformed store header: {exc}") from exc
        _check_header(path, header, version)
        self.header = header
        self.page_count: int = header["pages"]  # plain ints: compared on every fetch
        self.url_count: int = header["urls"]
        data_start = _align_up(header_end)
        spans = {  # (first byte, byte count) of each section
            name: (data_start + spec["offset"], spec["count"] * np.dtype(spec["dtype"]).itemsize)
            for name, spec in header["sections"].items()
        }
        # np.fromfile would hand a short column back without a word.
        for name, (start, nbytes) in spans.items():
            if start + nbytes > file_size:
                short = f"section {name} ends at byte {start + nbytes} of a {file_size}-byte file"
                raise CrawlLogError(f"{path}: truncated page store: {short}")
        self._file = open(path, "rb")
        self._fd = self._file.fileno()

        def load(name: str) -> np.ndarray:
            spec = header["sections"][name]
            dtype = np.dtype(spec["dtype"])
            if spec["count"] == 0:
                return np.empty(0, dtype=dtype)
            return np.fromfile(path, dtype=dtype, count=spec["count"], offset=spans[name][0])

        index = {name: load(name) for name in _INDEX_SECTIONS}
        (self._status, self._ctype, self._charset, self._lang, self._size, self._link_offsets,
         self._url_offsets, self._url_hash, self._url_hash_order) = index.values()
        self._views()
        self._link_arena_start = spans["link_arena"][0]
        self._url_arena_start = spans["url_arena"][0]
        # Optional cue section: absent in stores written before the cue
        # knobs existed (or with them at 0) — key off the header.
        self._link_cues_start = spans["link_cues"][0] if "link_cues" in spans else -1
        self._link_dtype = np.dtype(header["sections"]["link_arena"]["dtype"])
        self._link_code = {1: "b", 2: "h", 4: "i", 8: "q"}[self._link_dtype.itemsize]

        self._content_types: list[str] = list(header["content_types"])
        self._charsets: list[str] = list(header["charsets"])
        self._languages: list[Language] = [Language(value) for value in header["languages"]]
        self._url_cache: dict[int, str] = {}
        self._url_cache_order: deque[int] = deque()
        self._url_lookups = self._url_misses = self._url_evictions = 0
        self._relevant: dict[Language, StoreRelevantSet] = {}
        self._closed = False
        try:
            for name, spec in header["sections"].items() if version > 1 else ():
                if name in index:
                    crc = f"{zlib.crc32(index[name]):08x}"
                else:  # an arena: streamed, never resident
                    crc = _span_crc(self._fd, *spans[name])
                if crc != spec["crc32"]:
                    says = f"crc32 {crc}, header says {spec['crc32']}"
                    raise CrawlLogError(f"{path}: section {name} fails its checksum ({says})")
            self._check_columns()
        except CrawlLogError:
            self.close()
            raise

    def _check_columns(self) -> None:
        """Vectorised range checks on the loaded index columns: a value no
        table or arena holds is an error here, not another page's value."""
        within = (
            ("ctype", self._ctype, 0, len(self._content_types)),
            ("charset", self._charset, -1, len(self._charsets)),
            ("lang", self._lang, 0, len(self._languages)),
            ("url_hash_order", self._url_hash_order, 0, self.url_count),
        )
        for name, column, low, high in within:
            bad = np.flatnonzero((column < low) | (column >= high))
            if bad.size:
                self._bad_value(name, column, int(bad[0]), f"outside [{low}, {high})")
        arena_size = self.header["sections"]["url_arena"]["count"]
        for name, column, last in (
            ("link_offsets", self._link_offsets, self.link_count),
            ("url_offsets", self._url_offsets, arena_size),
            ("url_hash", self._url_hash, None),
        ):
            if last is not None and column.item(0) != 0:
                self._bad_value(name, column, 0, "where 0 must start")
            falls = np.flatnonzero(column[1:] < column[:-1])
            if falls.size:
                self._bad_value(name, column, int(falls[0]) + 1, "below the value before it")
            if last is not None and column.item(-1) != last:
                self._bad_value(name, column, len(column) - 1, f"where {last} must end")

    def _bad_value(self, name: str, column: np.ndarray, index: int, why: str) -> NoReturn:
        value = column.item(index)
        raise CrawlLogError(f"{self.path}: section {name}: index {index} holds {value}, {why}")

    # -- classmethod conveniences -----------------------------------------

    @classmethod
    def open(cls, path: str | Path) -> "PageStore":
        return cls(path)

    def close(self) -> None:
        """Drop the index columns and close the file (store unusable after)."""
        for name in _INDEX_SECTIONS:
            setattr(self, f"_{name}", np.empty(0, dtype=np.int8))
        self._views()
        self._url_cache.clear()
        self._url_cache_order.clear()
        self._relevant.clear()
        if not self._closed:
            self._file.close()
        self._closed = True

    def __enter__(self) -> "PageStore":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- store geometry -----------------------------------------------------

    @property
    def link_count(self) -> int:
        return int(self.header["links"])

    @property
    def meta(self) -> dict:
        return self.header.get("meta", {})

    @property
    def seed_urls(self) -> tuple[str, ...]:
        return tuple(self.meta.get("seed_urls", ()))

    def section_sizes(self) -> dict[str, int]:
        """Bytes per on-disk section (for ``dataset inspect``)."""
        sizes: dict[str, int] = {}
        for name, spec in self.header["sections"].items():
            sizes[name] = int(spec["count"]) * np.dtype(spec["dtype"]).itemsize
        return sizes

    @property
    def nbytes(self) -> int:
        return sum(self.section_sizes().values())

    # -- id <-> url ----------------------------------------------------------

    def url_of(self, uid: int) -> str:
        """The URL of url-id ``uid`` (bounded cache: hubs decode once).

        A miss goes to :meth:`_decode_urls`, which interns the string where
        it comes into being — so nobody downstream need intern it — and
        caches it, first decoded first out.
        """
        self._url_lookups += 1
        url = self._url_cache.get(uid)
        if url is None:
            url = self._decode_urls((uid,), [None])[0]
        return url

    def url_cache_stats(self) -> dict[str, int]:
        """Decoded-URL cache counters since open: every URL the store
        handed out is one lookup, every arena decode one miss."""
        lookups, misses = self._url_lookups, self._url_misses
        return dict(lookups=lookups, hits=lookups - misses, misses=misses,
                    evictions=self._url_evictions, size=len(self._url_cache))

    def _check_open(self) -> None:
        if self._closed:
            raise CrawlLogError(f"{self.path}: page store is closed")

    def _decode_urls(self, uids: Sequence[int], urls: list[Any]) -> list[Any]:
        """Fill in each ``None`` of ``urls`` — the URL-cache probe of
        ``uids``, item for item — with its id's URL, and return ``urls``.

        The one decode path, one frame however many ids: :meth:`_materialise`
        hands it a page's misses, :meth:`url_of` its one id.  Each missing
        id is taken in order, as :meth:`url_of` took them one by one: an id
        met earlier in the batch is in the cache by now (a hit); any other
        is range-checked, read from the arena (one ``pread``, its offsets
        through the ``url_offsets`` memoryview), decoded, made the intern
        table's canonical object (by :func:`~repro.urlkit.normalize.intern_urls`'
        rule: a ``setdefault`` while the table has room, else
        :func:`~repro.urlkit.normalize.intern_url`, which clears a full
        table) and cached first in, first out — one miss each.
        """
        if self._closed:
            raise CrawlLogError(f"{self.path}: page store is closed")
        cache, order = self._url_cache, self._url_cache_order
        offsets = self._url_views[2]
        fd, start, url_count = self._fd, self._url_arena_start, self.url_count
        # intern_url's table, probed in place: no call per miss.
        table = normalize._intern_table
        canonical = table.setdefault
        misses = evictions = 0
        try:
            for index in compress(range(len(urls)), map(is_, urls, repeat(None))):
                uid = uids[index]
                url = cache.get(uid)
                if url is None:
                    if not 0 <= uid < url_count:
                        raise UnknownPageError(f"url id {uid} out of range")
                    low = offsets[uid]
                    size = offsets[uid + 1] - low
                    raw = os.pread(fd, size, start + low)
                    if len(raw) != size:
                        short = f"url_arena read {len(raw)} of {size} bytes"
                        raise CrawlLogError(f"{self.path}: url id {uid}: {short}")
                    url = raw.decode("utf-8")
                    if len(table) < normalize._INTERN_MAX:
                        url = canonical(url, url)
                    else:
                        url = normalize.intern_url(url)
                    misses += 1
                    if len(cache) >= _URL_CACHE_MAX:
                        del cache[order.popleft()]
                        evictions += 1
                    cache[uid] = url
                    order.append(uid)
                urls[index] = url
        finally:
            self._url_misses += misses
            self._url_evictions += evictions
        return urls

    def _views(self) -> None:
        """The index columns the per-request paths read, as memoryviews,
        whose items are plain ints (no numpy scalar is made): ``url_hash``,
        ``url_hash_order`` and ``url_offsets`` for :meth:`id_of` and
        :meth:`_decode_urls`; the six page columns for :meth:`_materialise`.
        Built at open, and again at close, to let go of the columns."""
        self._url_views = (
            memoryview(self._url_hash), memoryview(self._url_hash_order),
            memoryview(self._url_offsets),
        )
        self._page_views = (
            memoryview(self._status), memoryview(self._ctype), memoryview(self._charset),
            memoryview(self._link_offsets), memoryview(self._size), memoryview(self._lang),
        )

    def id_of(self, url: str) -> int | None:
        """The url-id of ``url`` (page or dangling target), or None.

        A ``bisect`` over the sorted ``url_hash`` column finds the first
        row holding the URL's hash, and every row with that hash is
        checked against the URL's bytes in the arena (one ``pread``), so
        a hash collision is never a wrong id.  The columns are read
        through memoryviews (:meth:`_views`): no numpy scalar is made.
        """
        self._check_open()
        encoded = url.encode("utf-8")
        target = int.from_bytes(hashlib.blake2b(encoded, digest_size=8).digest(), "little")
        hashes, order, offsets = self._url_views
        index = bisect_left(hashes, target)
        size = len(encoded)
        while index < self.url_count and hashes[index] == target:
            uid = order[index]
            low = offsets[uid]
            if offsets[uid + 1] - low == size and (
                os.pread(self._fd, size, self._url_arena_start + low) == encoded
            ):
                return uid
            index += 1
        return None

    def page_id_of(self, url: str) -> int | None:
        """The page-id of ``url``, or None for dangling/unknown URLs."""
        uid = self.id_of(url)
        if uid is None or uid >= self.page_count:
            return None
        return uid

    def _check_page(self, page_id: int) -> None:
        self._check_open()
        if not 0 <= page_id < self.page_count:
            raise UnknownPageError(f"page id {page_id} out of range")

    def outlink_ids(self, page_id: int) -> np.ndarray:
        """The raw outlink url-id row of page ``page_id`` (one arena read)."""
        self._check_page(page_id)
        low = int(self._link_offsets[page_id])
        high = int(self._link_offsets[page_id + 1])
        if high == low:
            return np.empty(0, dtype=self._link_dtype)
        width = self._link_dtype.itemsize
        row = os.pread(self._fd, width * (high - low), self._link_arena_start + width * low)
        return np.frombuffer(row, dtype=self._link_dtype)

    def link_cue_row(self, page_id: int) -> tuple[int, ...] | None:
        """The cue bytes of page ``page_id``'s outlinks; None if the
        store carries no cue section."""
        self._check_page(page_id)
        if self._link_cues_start < 0:
            return None
        low = int(self._link_offsets[page_id])
        high = int(self._link_offsets[page_id + 1])
        if high == low:
            return ()
        return tuple(os.pread(self._fd, high - low, self._link_cues_start + low))

    # -- record materialisation ---------------------------------------------

    def record_at(self, page_id: int) -> PageRecord:
        """Materialise the record of page ``page_id`` (lazy, transient)."""
        return self._materialise(page_id)[0]

    def _materialise(self, page_id: int) -> tuple[PageRecord, int, tuple[int, ...]]:
        """``(record, page_id, outlink url-ids)`` — the ids the record's
        outlinks were decoded from, aligned 1:1 with ``record.outlinks``.

        Every record comes out of here, in a fixed number of frames
        whatever the page's out-degree: the page pays its checks and reads
        once (its columns through memoryviews, so no numpy scalar is made),
        its URL and every link pay a cache probe, and if the cache misses
        any, the whole row goes to :meth:`_decode_urls` in one call, which
        decodes the misses in row order as :meth:`url_of` would, one by one
        (the same lookups, misses, evictions and first-in-first-out order;
        an id met twice is decoded once), and rejects an id no row should
        hold.
        """
        if self._closed:
            raise CrawlLogError(f"{self.path}: page store is closed")
        if not 0 <= page_id < self.page_count:
            raise UnknownPageError(f"page id {page_id} out of range")
        statuses, ctypes, charsets, link_offsets, sizes, langs = self._page_views
        status = statuses[page_id]
        content_type = self._content_types[ctypes[page_id]]
        low = link_offsets[page_id]
        count = link_offsets[page_id + 1] - low
        link_ids: tuple[int, ...] = ()
        if count:
            width = self._link_dtype.itemsize
            row = os.pread(self._fd, width * count, self._link_arena_start + width * low)
            if len(row) != width * count:
                short = f"link_arena read {len(row)} of {width * count} bytes"
                raise CrawlLogError(f"{self.path}: page {page_id}: {short}")
            link_ids = struct.unpack(f"<{count}{self._link_code}", row)
        ids = (page_id, *link_ids)
        urls: list[Any] = list(map(self._url_cache.get, ids))  # every item a str once filled in
        self._url_lookups += count + 1
        if None in urls:
            try:
                self._decode_urls(ids, urls)
            except UnknownPageError as exc:
                message = f"{self.path}: page {page_id}: link row holds {exc.args[0]}"
                raise CrawlLogError(message) from exc
        url = urls[0]
        # Mirror the generator: only OK HTML pages carry a cue row (other
        # pages have no outlinks and record link_cues=None).
        cues: tuple[int, ...] | None = None
        if self._link_cues_start >= 0 and status == STATUS_OK and content_type == HTML_CONTENT_TYPE:
            cues = tuple(os.pread(self._fd, count, self._link_cues_start + low)) if count else ()
            check_link_cues(url, cues, count)
        charset_id = charsets[page_id]
        charset = None if charset_id < 0 else self._charsets[charset_id]
        record = PageRecord.from_interned(
            url, status, content_type, charset, self._languages[langs[page_id]],
            tuple(urls[1:]), sizes[page_id], cues,
        )
        return record, page_id, link_ids

    def fetch_record(
        self, url: str, hint: int | None = None
    ) -> tuple[PageRecord, int, tuple[int, ...]] | tuple[None, None, None]:
        """``(record, page_id, outlink url-ids)`` of ``url``, all None if it has no page.

        ``hint`` is a url-id this store gave out for ``url`` earlier (an
        outlink id riding on a candidate).  It is verified here, against
        the URL it leads to, and anything else — absent, out of range,
        another URL's — falls back to :meth:`id_of`: a wrong hint costs
        time, never a wrong page.  A verified *dangling* hint answers "no
        page" without the hash lookup.
        """
        if hint is not None:
            if 0 <= hint < self.page_count:
                found = self._materialise(hint)
                if found[0].url == url:
                    return found
            elif self.page_count <= hint < self.url_count and self.url_of(hint) == url:
                return None, None, None
        page_id = self.page_id_of(url)
        if page_id is None:
            return None, None, None
        return self._materialise(page_id)

    # -- PageSource protocol -------------------------------------------------

    def __len__(self) -> int:
        return self.page_count

    def __contains__(self, url: str) -> bool:
        return self.page_id_of(url) is not None

    def __iter__(self) -> Iterator[PageRecord]:
        for page_id in range(self.page_count):
            yield self.record_at(page_id)

    def get(self, url: str) -> PageRecord | None:
        page_id = self.page_id_of(url)
        if page_id is None:
            return None
        return self.record_at(page_id)

    def __getitem__(self, url: str) -> PageRecord:
        page_id = self.page_id_of(url)
        if page_id is None:
            raise UnknownPageError(url)
        return self.record_at(page_id)

    def urls(self) -> Iterator[str]:
        for page_id in range(self.page_count):
            yield self.url_of(page_id)

    # -- out-of-core hygiene --------------------------------------------------

    def release_page_cache(self) -> None:
        """Drop the store's transient caches (RSS hygiene between batches).

        Arena reads go through ``os.pread`` and never enter the process,
        so the only per-crawl growth on the store side is the bounded
        decoded-URL cache — cleared here.  (Kernel page cache is shared,
        reclaimable memory; it is deliberately left alone.)  Purely an
        RSS control: dropped entries re-read from disk on next access,
        results are unaffected.
        """
        self._check_open()
        self._url_cache.clear()
        self._url_cache_order.clear()

    def relevant_url_view(self, target_language: Language) -> "StoreRelevantSet":
        """Lazy coverage denominator (see :class:`StoreRelevantSet`), built once per language."""
        view = self._relevant.get(target_language)
        if view is None:
            view = self._relevant[target_language] = StoreRelevantSet(self, target_language)
        return view


class StoreRelevantSet(AbstractSet):
    """The explicit-recall denominator, computed from columns, held as a bitmask.

    Byte-for-byte equivalent (as a set) to
    :func:`repro.webspace.stats.relevant_url_set` over the same pages:
    a page is relevant when it is an OK HTML page whose *declared*
    charset implies the target language.  Metrics only ever ask ``url in
    relevant`` and ``len(relevant)``, so holding a bool per page instead
    of a frozenset of URL strings removes the full-store record scan —
    the single biggest resident cost of opening a million-page store —
    without touching a digest.
    """

    def __init__(self, store: PageStore, target_language: Language) -> None:
        self._store = store
        # Charset-table ids whose declared language is the target; the
        # sentinel -1 (no declared charset) maps through None.
        ok_ids = [
            cid
            for cid, charset in enumerate(store._charsets)
            if language_of_charset(charset) is target_language
        ]
        html_ids = [
            cid
            for cid, ctype in enumerate(store._content_types)
            if ctype == HTML_CONTENT_TYPE
        ]
        charset = store._charset[:]
        mask = np.isin(charset, np.array(ok_ids, dtype=charset.dtype))
        if language_of_charset(None) is target_language:
            mask |= charset == -1
        mask &= store._status[:] == STATUS_OK
        mask &= np.isin(store._ctype[:], np.array(html_ids, dtype=store._ctype.dtype))
        self._mask = mask
        self._count = int(mask.sum())

    def __contains__(self, url: object) -> bool:
        if not isinstance(url, str):
            return False
        page_id = self._store.page_id_of(url)
        return page_id is not None and self.contains_id(page_id)

    def contains_id(self, page_id: int) -> bool:
        """Membership by an id of *this* store — what ``url in self`` hashes its way to."""
        return bool(self._mask[page_id])

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[str]:
        for page_id in np.flatnonzero(self._mask):
            yield self._store.url_of(int(page_id))


class StoreBuilder:
    """Stream page records into a columnar store file.

    Generic (record-at-a-time) builder used for captured datasets and
    tests; the graph generator bypasses it with a direct column writer
    (:func:`repro.graphgen.stream.write_universe_store`) so a universe
    build never materialises record objects at all.

    URL ids are assigned pages-first: records buffer until
    :meth:`finish`, which numbers page URLs in insertion order, then
    dangling outlink targets in first-occurrence order.
    """

    def __init__(self) -> None:
        self._records: list[PageRecord] = []
        self._seen: set[str] = set()

    def add(self, record: PageRecord) -> None:
        if record.url in self._seen:
            raise CrawlLogError(f"duplicate store record for {record.url!r}")
        self._seen.add(record.url)
        self._records.append(record)

    def add_all(self, records: Iterable[PageRecord]) -> None:
        for record in records:
            self.add(record)

    def __len__(self) -> int:
        return len(self._records)

    def finish(self, path: str | Path, meta: dict | None = None) -> None:
        """Write the buffered records to ``path``."""
        records = self._records
        n_pages = len(records)
        if n_pages == 0:
            raise CrawlLogError("cannot finish a page store with no pages")

        ids: dict[str, int] = {}
        urls: list[str] = []
        for record in records:
            ids[record.url] = len(urls)
            urls.append(record.url)
        for record in records:
            for target in record.outlinks:
                if target not in ids:
                    ids[target] = len(urls)
                    urls.append(target)

        content_types: list[str] = []
        ctype_ids: dict[str, int] = {}
        charsets: list[str] = []
        charset_ids: dict[str, int] = {}
        languages: list[str] = []
        language_ids: dict[str, int] = {}

        def table_id(table: list[str], index: dict[str, int], value: str) -> int:
            cached = index.get(value)
            if cached is None:
                cached = len(table)
                index[value] = cached
                table.append(value)
            return cached

        status = np.empty(n_pages, dtype=np.int16)
        ctype = np.empty(n_pages, dtype=np.int16)
        charset = np.empty(n_pages, dtype=np.int16)
        lang = np.empty(n_pages, dtype=np.int8)
        size = np.empty(n_pages, dtype=np.int64)
        link_offsets = np.zeros(n_pages + 1, dtype=np.int64)
        link_targets: list[int] = []
        link_cues: list[int] = []
        any_cues = any(record.link_cues is not None for record in records)
        for page_id, record in enumerate(records):
            status[page_id] = record.status
            ctype[page_id] = table_id(content_types, ctype_ids, record.content_type)
            charset[page_id] = (
                -1 if record.charset is None else table_id(charsets, charset_ids, record.charset)
            )
            lang[page_id] = table_id(languages, language_ids, record.true_language.value)
            size[page_id] = record.size
            for target in record.outlinks:
                link_targets.append(ids[target])
            if any_cues:
                # Keep the cue arena aligned with link_targets; records
                # without cues (mixed inputs) contribute zero bytes.
                cues = record.link_cues
                if cues is not None:
                    check_link_cues(record.url, cues, len(record.outlinks))
                link_cues.extend(cues if cues is not None else (0,) * len(record.outlinks))
            link_offsets[page_id + 1] = len(link_targets)

        url_offsets = np.zeros(len(urls) + 1, dtype=np.int64)
        chunks: list[bytes] = []
        position = 0
        for uid, url in enumerate(urls):
            encoded = url.encode("utf-8")
            chunks.append(encoded)
            position += len(encoded)
            url_offsets[uid + 1] = position
        arena = np.frombuffer(b"".join(chunks), dtype=np.uint8)

        write_store(
            path,
            status=status,
            ctype=ctype,
            charset=charset,
            lang=lang,
            size=size,
            link_offsets=link_offsets,
            link_arena=np.asarray(link_targets, dtype=np.int64),
            url_offsets=url_offsets,
            url_arena=arena,
            content_types=content_types,
            charsets=charsets,
            languages=languages,
            meta=meta,
            link_cues=np.asarray(link_cues, dtype=np.uint8) if any_cues else None,
        )


class StoreLinkDB:
    """Out-of-core adjacency views over a :class:`PageStore`.

    The same query surface as :class:`~repro.webspace.linkdb.LinkDB`
    (forward / backward / degrees / reachable_from / edges), but running
    on the store's integer arenas: the backward index is a reverse-CSR
    over url-ids built with one argsort, never a dict of strings, and
    BFS walks ids with a bitmap visited set.  Backward adjacency order
    matches LinkDB exactly — sources ascending by page insertion order.
    """

    def __init__(self, store: PageStore) -> None:
        self._store = store
        counts = np.diff(store._link_offsets) if store.page_count else np.empty(0, dtype=np.int64)
        html_id = -1
        if HTML_CONTENT_TYPE in store._content_types:
            html_id = store._content_types.index(HTML_CONTENT_TYPE)
        self._emitting = (
            (np.asarray(store._status) == STATUS_OK) & (np.asarray(store._ctype) == html_id)
            if store.page_count
            else np.empty(0, dtype=bool)
        )
        self._counts = np.where(self._emitting, counts, 0).astype(np.int64)
        self._reverse_offsets: np.ndarray | None = None
        self._reverse_sources: np.ndarray | None = None

    # -- forward -----------------------------------------------------------

    def _emitting_page(self, url: str) -> int | None:
        page_id = self._store.page_id_of(url)
        if page_id is None or not bool(self._emitting[page_id]):
            return None
        return page_id

    def forward(self, url: str) -> tuple[str, ...]:
        page_id = self._emitting_page(url)
        if page_id is None:
            return ()
        store = self._store
        return tuple(store.url_of(int(uid)) for uid in store.outlink_ids(page_id))

    def out_degree(self, url: str) -> int:
        page_id = self._emitting_page(url)
        if page_id is None:
            return 0
        return int(self._counts[page_id])

    # -- backward ----------------------------------------------------------

    def _build_reverse(self) -> tuple[np.ndarray, np.ndarray]:
        if self._reverse_offsets is None:
            store = self._store
            sources = np.repeat(
                np.arange(store.page_count, dtype=np.int64), self._counts
            )
            targets = np.concatenate(
                [store.outlink_ids(int(page)) for page in np.nonzero(self._counts)[0]]
            ) if self._counts.sum() else np.empty(0, dtype=np.int64)
            order = np.argsort(targets, kind="stable")
            self._reverse_sources = sources[order]
            tally = np.bincount(targets, minlength=store.url_count) if len(targets) else np.zeros(
                store.url_count, dtype=np.int64
            )
            self._reverse_offsets = np.concatenate(
                ([0], np.cumsum(tally))
            ).astype(np.int64)
        assert self._reverse_sources is not None
        return self._reverse_offsets, self._reverse_sources

    def backward(self, url: str) -> tuple[str, ...]:
        uid = self._store.id_of(url)
        if uid is None:
            return ()
        offsets, sources = self._build_reverse()
        store = self._store
        return tuple(
            store.url_of(int(source)) for source in sources[offsets[uid] : offsets[uid + 1]]
        )

    def in_degree(self, url: str) -> int:
        uid = self._store.id_of(url)
        if uid is None:
            return 0
        offsets, _sources = self._build_reverse()
        return int(offsets[uid + 1] - offsets[uid])

    # -- traversal ---------------------------------------------------------

    def reachable_from(self, seeds: Iterable[str]) -> set[str]:
        """All URLs discoverable from ``seeds`` (ids under the hood)."""
        store = self._store
        seen = np.zeros(store.url_count, dtype=bool)
        unknown: set[str] = set()
        queue: deque[int] = deque()
        for seed in seeds:
            uid = store.id_of(seed)
            if uid is None:
                unknown.add(seed)
            elif not seen[uid]:
                seen[uid] = True
                queue.append(uid)
        while queue:
            uid = queue.popleft()
            if uid >= store.page_count or not self._emitting[uid]:
                continue
            for target in store.outlink_ids(uid):
                target = int(target)
                if not seen[target]:
                    seen[target] = True
                    queue.append(target)
        result = {store.url_of(int(uid)) for uid in np.nonzero(seen)[0]}
        return result | unknown

    def edges(self) -> Iterator[tuple[str, str]]:
        """All (source, target) pairs in page insertion order."""
        store = self._store
        for page_id in range(store.page_count):
            if not self._emitting[page_id]:
                continue
            source = store.url_of(page_id)
            for target in store.outlink_ids(page_id):
                yield source, store.url_of(int(target))

    def edge_count(self) -> int:
        return int(self._counts.sum())
