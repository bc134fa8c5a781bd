"""Top-level universe generation.

The generation layer is split in two:

- :func:`generate_columns` runs every RNG draw and emits the universe as
  **columns** — numpy arrays (statuses, charset indices, sizes, CSR link
  structure) plus the host table — in bounded memory: no
  :class:`~repro.webspace.page.PageRecord` objects, no URL strings.
  This is what the out-of-core store writer
  (:func:`repro.graphgen.stream.write_universe_store`) consumes, and it
  is the only path that touches the RNG, so the eager and streaming
  backends are byte-identical by construction.

- :func:`generate_universe` assembles those columns into the classic
  eager :class:`GeneratedUniverse` (records + in-memory
  :class:`~repro.webspace.crawllog.CrawlLog`) for workloads that fit.

The paper-style *dataset* (the capture crawl over this universe) is
produced by :mod:`repro.experiments.datasets`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.charset.languages import Language
from repro.errors import UnknownPageError
from repro.graphgen.config import DatasetProfile
from repro.graphgen.hosts import Host, build_hosts
from repro.graphgen.linkcontext import (
    ANCHOR_CUE_BIT,
    AROUND_CUE_BIT,
    cue_language_code,
)
from repro.graphgen.linker import build_edges, links_csr
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK, PageRecord

#: Non-OK statuses and their relative frequencies.
_NON_OK_STATUSES = np.array([404, 302, 403, 500])
_NON_OK_WEIGHTS = np.array([0.50, 0.25, 0.10, 0.15])

#: Content types of OK non-HTML pages.
_NON_HTML_TYPES = ("image/gif", "image/jpeg", "application/pdf", "text/plain")

#: Lognormal sigma for page sizes.
_SIZE_SIGMA = 0.6


@dataclass(frozen=True, slots=True)
class GeneratedUniverse:
    """A raw synthetic web: crawl log + the seed URLs a capture starts from."""

    profile: DatasetProfile
    crawl_log: CrawlLog
    seed_urls: tuple[str, ...]
    hosts: tuple[Host, ...]


@dataclass(slots=True)
class UniverseColumns:
    """A generated universe as numpy columns — the bounded-memory form.

    Page URLs are never materialised here: they are a pure function of
    ``(host, offset)`` (see :meth:`url_for`), link targets are page ids
    in the CSR arena, and seeds are page ids.  At 10⁶ pages (Thai ×7.14)
    the columns are 86 MB of arrays, where the eager record path costs
    gigabytes of Python objects; building them peaks higher, in the link
    phase (:mod:`repro.graphgen.stream` gives the measured peak).
    """

    profile: DatasetProfile
    hosts: tuple[Host, ...]
    lang_code: np.ndarray
    ok_mask: np.ndarray
    html_mask: np.ndarray
    statuses: np.ndarray
    charset_index: np.ndarray
    sizes: np.ndarray
    attractiveness: np.ndarray
    isolated_mask: np.ndarray
    #: CSR link structure: row ``p`` is
    #: ``link_targets[link_offsets[p]:link_offsets[p + 1]]`` (page ids,
    #: self-links dropped, first-occurrence deduped).
    link_offsets: np.ndarray
    link_targets: np.ndarray
    seed_pages: np.ndarray
    _host_first: np.ndarray
    #: Per-link textual-cue bytes aligned 1:1 with ``link_targets``
    #: (encoding in :mod:`repro.graphgen.linkcontext`); None when the
    #: profile's cue knobs are 0 — such universes carry no cue column
    #: and are byte-identical to pre-cue generations.
    link_cues: np.ndarray | None = None

    @property
    def n_pages(self) -> int:
        return len(self.lang_code)

    def host_of(self, page: int) -> Host:
        """The host owning page id ``page`` (pages contiguous per host)."""
        if not 0 <= page < self.n_pages:
            raise UnknownPageError(f"page id {page} out of range")
        index = int(np.searchsorted(self._host_first, page, side="right")) - 1
        return self.hosts[index]

    def url_for(self, page: int) -> str:
        """The URL of page id ``page``, computed — never stored."""
        host = self.host_of(page)
        return host.page_url(page - host.first_page)

    def seed_urls(self) -> tuple[str, ...]:
        return tuple(self.url_for(int(page)) for page in self.seed_pages)

    def content_type_of(self, page: int) -> str:
        if bool(self.ok_mask[page]) and not bool(self.html_mask[page]):
            return _NON_HTML_TYPES[page % len(_NON_HTML_TYPES)]
        return HTML_CONTENT_TYPE

    def charset_of(self, page: int) -> str | None:
        if not (bool(self.ok_mask[page]) and bool(self.html_mask[page])):
            return None
        group = self.profile.groups[int(self.lang_code[page])]
        return group.charset_choices[int(self.charset_index[page])].charset

    def language_of(self, page: int) -> Language:
        return self.profile.groups[int(self.lang_code[page])].language

    def record_for(self, page: int, urls: list[str] | None = None) -> PageRecord:
        """Materialise one page record (transient; bounded memory).

        ``urls`` may pass a precomputed url table to skip the per-target
        ``url_for`` binary searches (the eager path does).
        """
        ok = bool(self.ok_mask[page])
        html = bool(self.html_mask[page])
        outlinks: tuple[str, ...] = ()
        cues: tuple[int, ...] | None = None
        if ok and html:
            start = self.link_offsets[page]
            stop = self.link_offsets[page + 1]
            row = self.link_targets[start:stop]
            if urls is not None:
                outlinks = tuple(urls[target] for target in row)
            else:
                outlinks = tuple(self.url_for(int(target)) for target in row)
            if self.link_cues is not None:
                cues = tuple(int(cue) for cue in self.link_cues[start:stop])
        return PageRecord(
            url=urls[page] if urls is not None else self.url_for(page),
            status=int(self.statuses[page]),
            content_type=self.content_type_of(page),
            charset=self.charset_of(page),
            true_language=self.language_of(page),
            outlinks=outlinks,
            size=int(self.sizes[page]) if ok and html else 0,
            link_cues=cues,
        )


def generate_columns(profile: DatasetProfile) -> UniverseColumns:
    """Run the full generation pass, emitting columns (no records).

    Every RNG draw happens here, in a fixed order; both backends (eager
    records, columnar store) are assembled from the same columns, which
    is what makes them byte-identical.
    """
    profile.validate()
    rng = np.random.default_rng(profile.seed)
    n_pages = profile.n_pages
    n_groups = len(profile.groups)

    hosts = build_hosts(profile, rng)

    # Per-page language: host's dominant language, with rare deviations.
    lang_code = np.empty(n_pages, dtype=np.int64)
    for host in hosts:
        lang_code[host.page_slice] = host.group_index
    if n_groups > 1 and profile.page_language_deviation > 0:
        deviate = rng.random(n_pages) < profile.page_language_deviation
        shift = rng.integers(1, n_groups, size=n_pages)
        lang_code[deviate] = (lang_code[deviate] + shift[deviate]) % n_groups

    # Statuses and content types.
    ok_mask = rng.random(n_pages) < profile.ok_fraction
    html_mask = ok_mask & (rng.random(n_pages) < profile.html_fraction)
    statuses = np.full(n_pages, STATUS_OK, dtype=np.int64)
    n_non_ok = int((~ok_mask).sum())
    statuses[~ok_mask] = rng.choice(_NON_OK_STATUSES, size=n_non_ok, p=_NON_OK_WEIGHTS)

    # Charset declarations, sampled from each page's language group.
    charset_index = np.zeros(n_pages, dtype=np.int64)
    for group_index, group in enumerate(profile.groups):
        members = lang_code == group_index
        count = int(members.sum())
        if count == 0:
            continue
        weights = np.array([choice.weight for choice in group.charset_choices], dtype=np.float64)
        weights /= weights.sum()
        charset_index[members] = rng.choice(len(group.charset_choices), size=count, p=weights)

    # Sizes (only meaningful for OK HTML pages, but cheap to draw for all).
    size_mu = np.log(profile.mean_page_size) - _SIZE_SIGMA**2 / 2
    sizes = rng.lognormal(size_mu, _SIZE_SIGMA, size=n_pages).astype(np.int64)
    sizes = np.maximum(sizes, 256)

    # Link attractiveness and the link structure itself.  Non-OK and
    # non-HTML URLs draw far fewer inlinks — dead links and binary
    # resources are linked much less than live pages.
    attractiveness = rng.pareto(profile.attractiveness_alpha, size=n_pages) + 1.0
    attractiveness[~ok_mask] *= profile.non_ok_attractiveness
    attractiveness[ok_mask & ~html_mask] *= profile.non_html_attractiveness

    # Isolated sites: target-language hosts reachable across hosts only
    # through other-language pages (paper §3 observation 2).
    isolated_mask = np.zeros(n_pages, dtype=bool)
    target_groups = [
        index
        for index, group in enumerate(profile.groups)
        if group.language is profile.target_language
    ]
    if profile.isolated_site_fraction > 0:
        for host in hosts:
            if host.group_index in target_groups and rng.random() < profile.isolated_site_fraction:
                isolated_mask[host.page_slice] = True

    sources, targets = build_edges(
        profile, hosts, lang_code, html_mask, attractiveness, rng, isolated_mask=isolated_mask
    )
    link_offsets, link_targets = links_csr(n_pages, sources, targets)
    del sources, targets

    # Textual-cue bytes, one per kept link (aligned with link_targets, so
    # they map 1:1 onto each record's outlinks).  Drawn *after* the CSR
    # build and gated on the knobs, so profiles with both probabilities
    # at 0 consume no extra RNG draws and stay byte-identical.
    link_cues: np.ndarray | None = None
    if profile.anchor_cue_probability > 0 or profile.around_cue_probability > 0:
        n_links = len(link_targets)
        anchor_hit = rng.random(n_links) < profile.anchor_cue_probability
        around_hit = rng.random(n_links) < profile.around_cue_probability
        group_code = np.array(
            [cue_language_code(group.language) for group in profile.groups],
            dtype=np.uint8,
        )
        link_cues = np.zeros(n_links, dtype=np.uint8)
        any_hit = anchor_hit | around_hit
        link_cues[any_hit] = group_code[lang_code[link_targets[any_hit]]]
        link_cues[anchor_hit] |= ANCHOR_CUE_BIT
        link_cues[around_hit] |= AROUND_CUE_BIT

    host_first = np.array([host.first_page for host in hosts], dtype=np.int64)
    seed_pages = _select_seed_pages(
        profile, host_first, lang_code, html_mask & ~isolated_mask, attractiveness
    )

    return UniverseColumns(
        profile=profile,
        hosts=tuple(hosts),
        lang_code=lang_code,
        ok_mask=ok_mask,
        html_mask=html_mask,
        statuses=statuses,
        charset_index=charset_index,
        sizes=sizes,
        attractiveness=attractiveness,
        isolated_mask=isolated_mask,
        link_offsets=link_offsets,
        link_targets=link_targets,
        seed_pages=seed_pages,
        _host_first=host_first,
        link_cues=link_cues,
    )


def generate_universe(profile: DatasetProfile) -> GeneratedUniverse:
    """Generate the synthetic web universe described by ``profile``.

    The eager assembly of :func:`generate_columns`: all records are
    materialised into an in-memory crawl log.  For million-page webs use
    :func:`repro.graphgen.stream.write_universe_store` instead, which
    writes the same universe to a columnar store without ever holding
    the records.
    """
    columns = generate_columns(profile)
    n_pages = columns.n_pages
    urls = [url for host in columns.hosts for url in host.page_urls()]
    records = [columns.record_for(page, urls) for page in range(n_pages)]
    return GeneratedUniverse(
        profile=profile,
        crawl_log=CrawlLog(records),
        seed_urls=tuple(urls[int(page)] for page in columns.seed_pages),
        hosts=columns.hosts,
    )


def _select_seed_pages(
    profile: DatasetProfile,
    host_first: np.ndarray,
    lang_code: np.ndarray,
    html_mask: np.ndarray,
    attractiveness: np.ndarray,
) -> np.ndarray:
    """Pick seed pages: popular target-language OK HTML pages, spread over
    distinct hosts — the way an archivist would seed from known portals.

    Returns page ids (URLs are a derived view); page identity and URL
    identity coincide, so the dedupe is unchanged from the string days.
    """
    target_groups = {
        index
        for index, group in enumerate(profile.groups)
        if group.language is profile.target_language
    }
    candidate_mask = html_mask & np.isin(lang_code, list(target_groups))
    candidates = np.nonzero(candidate_mask)[0]
    if len(candidates) == 0:
        raise_from = f"profile {profile.name!r} produced no target-language HTML pages"
        raise RuntimeError(raise_from)
    order = candidates[np.argsort(attractiveness[candidates])[::-1]]
    host_of_order = np.searchsorted(host_first, order, side="right") - 1

    seeds: list[int] = []
    used_hosts: set[int] = set()
    for page, host_index in zip(order, host_of_order):
        host_index = int(host_index)
        if host_index in used_hosts:
            continue
        used_hosts.add(host_index)
        seeds.append(int(page))
        if len(seeds) == profile.n_seeds:
            break
    # Not enough distinct hosts: top up with the best remaining pages.
    if len(seeds) < profile.n_seeds:
        chosen = set(seeds)
        for page in order:
            page = int(page)
            if page not in chosen:
                seeds.append(page)
                chosen.add(page)
            if len(seeds) == profile.n_seeds:
                break
    return np.array(seeds, dtype=np.int64)
