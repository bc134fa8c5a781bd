"""Streaming universe → columnar store writer.

The bounded-memory generation path: :func:`generate_columns` emits the
universe as numpy columns, and this module maps those columns straight
into the on-disk layout of :class:`repro.webspace.store.PageStore` —
statuses, table ids and the CSR link arena are vectorised column
transforms, and URLs are encoded host-by-host into the flat arena.  No
:class:`~repro.webspace.page.PageRecord` (and no outlink tuple of
strings) is ever constructed.  The build's peak is the link phase of
:func:`generate_columns`, inside :func:`repro.graphgen.linker.links_csr`:
one uncaptured Thai ×7.14 build (10⁶ URLs) peaks at 237 MB ``ru_maxrss``
in a fresh interpreter, of which ≈ 38 MB is the interpreter and its
imports (186 MB traced by ``tracemalloc``).  The write phase that
follows stays below it.

A universe store's URL table is exactly its page table (every link
target is a generated page), so url-id == page-id and there are no
dangling entries — captured stores, built by
:func:`repro.experiments.datasets.build_dataset_store`, are where
dangling targets appear.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.graphgen.config import DatasetProfile
from repro.graphgen.generator import _NON_HTML_TYPES, UniverseColumns, generate_columns
from repro.webspace.page import HTML_CONTENT_TYPE
from repro.webspace.store import write_store


def universe_store_meta(profile: DatasetProfile, seed_urls: tuple[str, ...]) -> dict:
    """The store-header ``meta`` object for a raw (uncaptured) universe."""
    return {
        "name": profile.name,
        "profile": profile.to_json_dict(),
        "seed_urls": list(seed_urls),
        "capture_kind": "none",
        "capture_n": 0,
    }


def write_columns_store(columns: UniverseColumns, path: str | Path) -> None:
    """Write generated columns to a page-store file (no record objects).

    The URL arena is one ``bytearray`` that each host's
    :meth:`Host.page_urls` extend, and ``url_offsets`` is the in-place
    cumsum of the URL lengths: no Python list spans every URL, no URL
    costs a scalar store into numpy, and the arena is held once.
    """
    profile = columns.profile
    n_pages = columns.n_pages
    ok = columns.ok_mask
    html = columns.html_mask

    # Content types: id 0 is text/html; OK non-HTML pages rotate through
    # the fixed non-HTML table by page id (generator convention).
    content_types = [HTML_CONTENT_TYPE, *_NON_HTML_TYPES]
    ctype = np.zeros(n_pages, dtype=np.int16)
    non_html = np.flatnonzero(ok & ~html)
    ctype[non_html] = 1 + non_html % len(_NON_HTML_TYPES)

    # Charsets: one global table over every group's choices, plus a
    # (group, choice) → global-id lookup; None stays -1 (no declaration).
    charsets: list[str] = []
    charset_ids: dict[str, int] = {}
    max_choices = max(len(group.charset_choices) for group in profile.groups)
    choice_map = np.full((len(profile.groups), max_choices), -1, dtype=np.int16)
    for group_index, group in enumerate(profile.groups):
        for choice_index, choice in enumerate(group.charset_choices):
            if choice.charset is None:
                continue
            table_id = charset_ids.get(choice.charset)
            if table_id is None:
                table_id = len(charsets)
                charset_ids[choice.charset] = table_id
                charsets.append(choice.charset)
            choice_map[group_index, choice_index] = table_id
    charset = np.full(n_pages, -1, dtype=np.int16)
    declared = ok & html
    charset[declared] = choice_map[
        columns.lang_code[declared], columns.charset_index[declared]
    ]

    # True languages: first-appearance table over the group languages.
    languages: list[str] = []
    language_ids: dict[str, int] = {}
    group_lang = np.zeros(len(profile.groups), dtype=np.int8)
    for group_index, group in enumerate(profile.groups):
        value = group.language.value
        table_id = language_ids.get(value)
        if table_id is None:
            table_id = len(languages)
            language_ids[value] = table_id
            languages.append(value)
        group_lang[group_index] = table_id
    lang = group_lang[columns.lang_code]

    size = np.where(ok & html, columns.sizes, 0)

    # URL arena: page urls in id order (pages are contiguous per host,
    # hosts ascend), appended host by host to the one buffer written.
    url_offsets = np.zeros(n_pages + 1, dtype=np.int64)
    arena = bytearray()
    for host in columns.hosts:
        encoded = [url.encode("utf-8") for url in host.page_urls()]
        url_offsets[host.first_page + 1 : host.first_page + host.n_pages + 1] = list(
            map(len, encoded)
        )
        arena += b"".join(encoded)
    np.cumsum(url_offsets, out=url_offsets)

    write_store(
        path,
        status=columns.statuses.astype(np.int16),
        ctype=ctype,
        charset=charset,
        lang=lang.astype(np.int8),
        size=size,
        link_offsets=columns.link_offsets,
        link_arena=columns.link_targets,
        url_offsets=url_offsets,
        url_arena=arena,
        content_types=content_types,
        charsets=charsets,
        languages=languages,
        meta=universe_store_meta(profile, columns.seed_urls()),
        link_cues=columns.link_cues,
    )


def write_universe_store(profile: DatasetProfile, path: str | Path) -> None:
    """Generate ``profile``'s universe directly into a store file."""
    write_columns_store(generate_columns(profile), path)
