"""Edge generation: who links to whom.

Links are sampled from a three-way mixture, per source page:

1. with probability ``intra_host_fraction`` — a page on the same host;
2. otherwise, with probability ``language_locality`` — a page on some
   host of the *source page's* language (language locality);
3. otherwise — a page of a different language, chosen by group weight.

Within any candidate pool, targets are drawn proportionally to a
per-page Pareto "attractiveness", which yields the heavy-tailed
in-degree distribution of real web graphs (hubs, portals) and gives the
capture crawl natural entry points.

Everything is vectorised with numpy: per-host batches for intra-host
links, per-language-pair batches for the rest.  Slot columns hold int32
page ids, and what would span every slot at once (the mixture draws,
pool samples, the CSR dedupe) runs in pieces of about ``_CHUNK`` slots,
so the link phase holds each link slot about once.
"""

from __future__ import annotations

import numpy as np

from repro.graphgen.config import DatasetProfile
from repro.graphgen.hosts import Host


#: Slots per vectorised piece.  Every temporary of the link phase that
#: would otherwise span all link slots is cut to pieces of this size.
_CHUNK = 1 << 16


class _WeightedPool:
    """Weighted sampling over a fixed set of page ids (int32)."""

    __slots__ = ("page_ids", "_cumulative")

    def __init__(self, page_ids: np.ndarray, weights: np.ndarray) -> None:
        self.page_ids = page_ids
        self._cumulative = np.cumsum(weights)

    def __len__(self) -> int:
        return len(self.page_ids)

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` page ids, drawn with ``rng.random`` in pieces: the
        same stream as one ``rng.random(count)``, at a piece's memory."""
        drawn = np.empty(count, dtype=np.int32)
        if len(self.page_ids) == 0:
            return drawn[:0]
        total = self._cumulative[-1]
        last = len(self.page_ids) - 1
        for start in range(0, count, _CHUNK):
            draws = rng.random(min(_CHUNK, count - start))
            draws *= total
            indices = np.searchsorted(self._cumulative, draws, side="right")
            np.minimum(indices, last, out=indices)
            drawn[start : start + len(indices)] = self.page_ids[indices]
        return drawn


def _group_pool(members: np.ndarray, attractiveness: np.ndarray) -> _WeightedPool:
    """The attractiveness-weighted pool over the pages ``members`` marks."""
    page_ids = np.flatnonzero(members).astype(np.int32)
    return _WeightedPool(page_ids, attractiveness[page_ids])


def sample_out_degrees(
    profile: DatasetProfile,
    source_mask: np.ndarray,
    rng: np.random.Generator,
    lang_code: np.ndarray | None = None,
) -> np.ndarray:
    """Lognormal out-degrees for source (OK HTML) pages, 0 elsewhere.

    When ``lang_code`` is given, each page's degree is scaled by its
    language group's ``out_degree_scale`` before clipping.
    """
    n_pages = len(source_mask)
    degrees = np.zeros(n_pages, dtype=np.int64)
    n_sources = int(source_mask.sum())
    if n_sources == 0:
        return degrees
    raw = rng.lognormal(profile.out_degree_mu, profile.out_degree_sigma, size=n_sources)
    if lang_code is not None:
        scales = np.array([group.out_degree_scale for group in profile.groups])
        raw *= scales[lang_code[source_mask]]
    degrees[source_mask] = np.clip(np.round(raw), 0, profile.max_out_degree).astype(np.int64)
    return degrees


def build_edges(
    profile: DatasetProfile,
    hosts: list[Host],
    lang_code: np.ndarray,
    source_mask: np.ndarray,
    attractiveness: np.ndarray,
    rng: np.random.Generator,
    isolated_mask: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample all link targets.

    Args:
        profile: the generator recipe.
        hosts: host table in page order, pages contiguous per host (as
            :func:`~repro.graphgen.hosts.build_hosts` lays them out).
        lang_code: per-page language group index (after deviation).
        source_mask: True for pages that emit links (OK HTML).
        attractiveness: per-page positive link-attractiveness weights.
        rng: the generator's RNG stream.
        isolated_mask: pages on isolated sites; they are excluded from
            the *same-language* target pools, so their only cross-host
            inlinks come from pages of other languages (paper §3
            observation 2).

    Returns:
        ``(sources, targets)`` — parallel int64 arrays, one entry per
        link slot, ordered by source page id.  Self-links and duplicate
        (source, target) pairs may still occur; the caller dedupes when
        assembling page records.
    """
    n_pages = len(lang_code)
    n_groups = len(profile.groups)

    degrees = sample_out_degrees(profile, source_mask, rng, lang_code=lang_code)
    # Page ids are int32 until the return: each slot column costs 4 bytes.
    sources = np.repeat(np.arange(n_pages, dtype=np.int32), degrees)
    total_slots = len(sources)
    targets = np.empty(total_slots, dtype=np.int32)
    if total_slots == 0:
        return sources.astype(np.int64), targets.astype(np.int64)

    # Mixture category per slot: 0 = intra-host, 1 = same language,
    # 2 = other language.  The uniforms come in pieces: the same stream
    # as one rng.random(total_slots).
    intra_below = profile.intra_host_fraction
    same_below = intra_below + (1 - intra_below) * profile.language_locality
    category = np.empty(total_slots, dtype=np.int8)
    for start in range(0, total_slots, _CHUNK):
        draws = rng.random(min(_CHUNK, total_slots - start))
        piece = category[start : start + len(draws)]
        piece[:] = 2
        piece[draws < same_below] = 1
        piece[draws < intra_below] = 0

    # --- intra-host slots: batched per host. ------------------------------
    # Hosts are in page order and ``sources`` ascends, so each host's
    # intra slots are one run of ``intra_sources``, hosts in index order.
    intra = category == 0
    intra_sources = sources[intra]
    if len(intra_sources):
        intra_targets = np.empty(len(intra_sources), dtype=np.int32)
        host_bounds = [host.first_page for host in hosts] + [n_pages]
        runs = np.searchsorted(intra_sources, host_bounds).tolist()
        for host, low, high in zip(hosts, runs, runs[1:]):
            if low == high:
                continue
            local = np.arange(host.first_page, host.first_page + host.n_pages, dtype=np.int32)
            pool = _WeightedPool(local, attractiveness[host.page_slice])
            intra_targets[low:high] = pool.sample(high - low, rng)
        targets[intra] = intra_targets
        del intra_targets
    del intra, intra_sources

    # --- language-directed slots: batched per (category, source group). ---
    # Two pool families: cross-language links may target any page of the
    # chosen language, while same-language links avoid isolated sites.
    if isolated_mask is None:
        isolated_mask = np.zeros(n_pages, dtype=bool)
    cross_pools = [_group_pool(lang_code == group, attractiveness) for group in range(n_groups)]
    same_pools = [
        _group_pool((lang_code == group) & ~isolated_mask, attractiveness)
        for group in range(n_groups)
    ]
    group_weights = np.array([group.weight for group in profile.groups], dtype=np.float64)
    source_lang = lang_code.astype(np.int8)[sources]
    del sources

    for source_group in range(n_groups):
        of_group = source_lang == source_group
        same = (category == 1) & of_group
        if same.any():
            pool = same_pools[source_group]
            if not len(pool):  # every site of this language is isolated
                pool = cross_pools[source_group]
            if len(pool):
                targets[same] = pool.sample(int(same.sum()), rng)
            else:  # no page of this language: fall back to anywhere
                targets[same] = rng.integers(0, n_pages, size=int(same.sum()))
        del same

        other = (category == 2) & of_group
        if other.any():
            weights = group_weights.copy()
            weights[source_group] = 0.0
            if weights.sum() == 0:  # single-language universe
                weights[source_group] = 1.0
            weights /= weights.sum()
            slot_count = int(other.sum())
            chosen_groups = rng.choice(n_groups, size=slot_count, p=weights)
            other_targets = np.empty(slot_count, dtype=np.int32)
            for target_group in range(n_groups):
                chosen = chosen_groups == target_group
                chosen_count = int(chosen.sum())
                if chosen_count == 0:
                    continue
                pool = cross_pools[target_group]
                if len(pool):
                    other_targets[chosen] = pool.sample(chosen_count, rng)
                else:
                    other_targets[chosen] = rng.integers(0, n_pages, size=chosen_count)
            targets[other] = other_targets

    del category, source_lang, of_group, other, cross_pools, same_pools
    # Widened one column at a time; ``sources`` is rebuilt from the
    # degrees rather than kept beside the per-group masks.
    targets = targets.astype(np.int64)
    return np.repeat(np.arange(n_pages, dtype=np.int64), degrees), targets


def links_csr(
    n_pages: int, sources: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Compress flat edge arrays into CSR ``(offsets, targets)`` form.

    Self-links are dropped; duplicate targets are removed preserving
    first-occurrence order (a page links to each URL at most once, which
    keeps the crawl log and re-extraction from synthesized bodies in
    exact agreement).  ``sources`` ascends, so a page's slots are one
    row.  The dedupe runs on chunks of about ``_CHUNK`` slots cut at row
    boundaries (a row longer than that is a chunk of its own): within a
    chunk, ``np.unique`` on the ``source * n_pages + target`` key finds
    each pair's first occurrence, and a duplicate never spans two chunks.
    What is kept is marked in one boolean column, so beside the inputs
    only that column, the output and one chunk's temporaries are alive.

    Row ``p`` of the result is ``targets[offsets[p]:offsets[p + 1]]``;
    it is also the page-store link arena's row layout
    (:mod:`repro.webspace.store`).
    """
    offsets = np.zeros(n_pages + 1, dtype=np.int64)
    keep = np.zeros(len(sources), dtype=bool)
    start = 0
    while start < len(sources):
        stop = start + _CHUNK
        if stop >= len(sources):
            stop = len(sources)
        else:  # back to the start of the row holding slot ``stop``, or past a long row
            stop = int(np.searchsorted(sources, sources[stop], side="left"))
            if stop == start:
                stop = int(np.searchsorted(sources, sources[start], side="right"))
        chunk_sources = sources[start:stop]
        chunk_targets = targets[start:stop]
        linked = np.flatnonzero(chunk_sources != chunk_targets)
        key = chunk_sources[linked].astype(np.int64, copy=False)
        key *= n_pages
        key += chunk_targets[linked]
        _, first_index = np.unique(key, return_index=True)
        kept = linked[first_index]
        keep[start + kept] = True
        low, high = int(chunk_sources[0]), int(chunk_sources[-1])
        offsets[low + 1 : high + 2] = np.bincount(
            chunk_sources[kept] - low, minlength=high - low + 1
        )
        start = stop
    np.cumsum(offsets, out=offsets)
    return offsets, targets[keep].astype(np.int64, copy=False)


def outlinks_per_page(
    n_pages: int, sources: np.ndarray, targets: np.ndarray
) -> list[np.ndarray]:
    """Per-source target arrays (list-of-rows view of :func:`links_csr`)."""
    offsets, csr_targets = links_csr(n_pages, sources, targets)
    return [
        csr_targets[offsets[page] : offsets[page + 1]] for page in range(n_pages)
    ]
