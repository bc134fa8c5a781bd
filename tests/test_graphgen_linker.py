"""Unit tests for edge generation."""

import numpy as np
import pytest

from repro.graphgen import linker
from repro.graphgen.hosts import build_hosts
from repro.graphgen.linker import build_edges, outlinks_per_page, sample_out_degrees
from repro.graphgen.profiles import thai_profile


@pytest.fixture(scope="module")
def setup():
    profile = thai_profile().scaled(0.05)
    rng = np.random.default_rng(profile.seed)
    hosts = build_hosts(profile, rng)
    n_pages = profile.n_pages
    lang_code = np.empty(n_pages, dtype=np.int64)
    for host in hosts:
        lang_code[host.page_slice] = host.group_index
    source_mask = np.ones(n_pages, dtype=bool)
    attractiveness = rng.pareto(1.3, size=n_pages) + 1.0
    return profile, hosts, lang_code, source_mask, attractiveness


class TestOutDegrees:
    def test_zero_for_non_sources(self, setup):
        profile, _, lang_code, _, _ = setup
        mask = np.zeros(profile.n_pages, dtype=bool)
        mask[:10] = True
        degrees = sample_out_degrees(profile, mask, np.random.default_rng(1), lang_code)
        assert (degrees[10:] == 0).all()
        assert degrees[:10].sum() > 0

    def test_capped_at_max(self, setup):
        profile, _, lang_code, mask, _ = setup
        degrees = sample_out_degrees(profile, mask, np.random.default_rng(1), lang_code)
        assert degrees.max() <= profile.max_out_degree

    def test_out_degree_scale_applied(self, setup):
        profile, _, lang_code, mask, _ = setup
        degrees = sample_out_degrees(profile, mask, np.random.default_rng(1), lang_code)
        # The thai profile scales the OTHER group's degree 2.2x and the
        # THAI group's 0.8x; means must separate accordingly.
        scales = {index: group.out_degree_scale for index, group in enumerate(profile.groups)}
        big = max(scales, key=scales.get)
        small = min(scales, key=scales.get)
        assert degrees[lang_code == big].mean() > 1.5 * degrees[lang_code == small].mean()

    def test_no_sources_yields_no_edges(self, setup):
        profile, hosts, lang_code, _, attractiveness = setup
        mask = np.zeros(profile.n_pages, dtype=bool)
        sources, targets = build_edges(
            profile, hosts, lang_code, mask, attractiveness, np.random.default_rng(2)
        )
        assert len(sources) == len(targets) == 0


class TestEdgeStructure:
    @pytest.fixture(scope="class")
    def edges(self, setup):
        profile, hosts, lang_code, mask, attractiveness = setup
        return setup + build_edges(
            profile, hosts, lang_code, mask, attractiveness, np.random.default_rng(3)
        )

    def test_sources_sorted_by_page(self, edges):
        *_, sources, targets = edges
        assert (np.diff(sources) >= 0).all()

    def test_targets_in_range(self, edges):
        profile, *_ , sources, targets = edges
        assert targets.min() >= 0
        assert targets.max() < profile.n_pages

    def test_language_locality_holds(self, edges):
        profile, hosts, lang_code, _, _, sources, targets = edges
        same_language = (lang_code[sources] == lang_code[targets]).mean()
        # intra-host links are same-language by construction, plus the
        # locality share of cross-host links; allow slack for deviants.
        expected_floor = profile.intra_host_fraction * 0.9
        assert same_language > expected_floor

    def test_in_degree_heavy_tailed(self, edges):
        profile, *_ , sources, targets = edges
        counts = np.bincount(targets, minlength=profile.n_pages)
        top_share = np.sort(counts)[::-1][: profile.n_pages // 100].sum() / counts.sum()
        # Top 1% of pages should attract a grossly disproportionate share.
        assert top_share > 0.15


class TestIsolation:
    def test_isolated_pages_receive_no_same_language_cross_links(self, setup):
        profile, hosts, lang_code, mask, attractiveness = setup
        rng = np.random.default_rng(4)
        isolated = np.zeros(profile.n_pages, dtype=bool)
        # Isolate one thai host entirely.
        target_group = next(
            index for index, group in enumerate(profile.groups)
            if group.language is profile.target_language
        )
        thai_hosts = [host for host in hosts if host.group_index == target_group]
        victim = max(thai_hosts, key=lambda host: host.n_pages)
        isolated[victim.page_slice] = True

        sources, targets = build_edges(
            profile, hosts, lang_code, mask, attractiveness, rng, isolated_mask=isolated
        )
        host_of = np.empty(profile.n_pages, dtype=np.int64)
        for host in hosts:
            host_of[host.page_slice] = host.index
        into_victim = isolated[targets] & (host_of[sources] != victim.index)
        # Every cross-host link into the isolated host comes from a
        # different-language page.
        assert (lang_code[sources[into_victim]] != target_group).all()


class TestOutlinksPerPage:
    def test_grouping(self):
        sources = np.array([0, 0, 2, 2, 2])
        targets = np.array([5, 6, 7, 8, 9])
        grouped = outlinks_per_page(4, sources, targets)
        assert list(grouped[0]) == [5, 6]
        assert list(grouped[1]) == []
        assert list(grouped[2]) == [7, 8, 9]

    def test_self_links_dropped(self):
        grouped = outlinks_per_page(2, np.array([0, 0]), np.array([0, 1]))
        assert list(grouped[0]) == [1]

    def test_duplicates_dropped_order_preserved(self):
        sources = np.array([0, 0, 0, 0])
        targets = np.array([3, 1, 3, 2])
        assert list(outlinks_per_page(4, sources, targets)[0]) == [3, 1, 2]

    def test_empty(self):
        grouped = outlinks_per_page(3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        assert all(len(chunk) == 0 for chunk in grouped)


def _links_csr_one_shot(n_pages, sources, targets):
    """The oracle: one ``np.unique`` over every slot's global key."""
    offsets = np.zeros(n_pages + 1, dtype=np.int64)
    if len(sources) == 0:
        return offsets, np.empty(0, dtype=np.int64)
    keep = sources != targets
    kept_sources = sources[keep]
    kept_targets = targets[keep]
    key = kept_sources * np.int64(n_pages) + kept_targets
    _, first_index = np.unique(key, return_index=True)
    first_index = np.sort(first_index)
    kept_sources = kept_sources[first_index]
    kept_targets = kept_targets[first_index]
    counts = np.bincount(kept_sources, minlength=n_pages)
    np.cumsum(counts, out=offsets[1:])
    return offsets, kept_targets.astype(np.int64, copy=False)


def _edge_list(seed, n_pages, max_degree, target_span, long_rows=()):
    """Ascending sources with random degrees (zeros included); targets
    lie near their source, so self-links and repeats are common."""
    rng = np.random.default_rng(seed)
    degrees = rng.integers(0, max_degree + 1, size=n_pages)
    degrees[rng.random(n_pages) < 0.2] = 0
    for page, degree in long_rows:
        degrees[page] = degree
    sources = np.repeat(np.arange(n_pages, dtype=np.int64), degrees)
    offsets = rng.integers(-target_span, target_span + 1, size=len(sources))
    targets = np.clip(sources + offsets, 0, n_pages - 1)
    return sources, targets


EDGE_LISTS = {
    # ≈ 5 chunks at the default size: rows straddle every chunk edge.
    "straddling": _edge_list(1, 12_000, 48, 30),
    # One row three chunks long, with only 40 distinct targets.
    "row-longer-than-chunk": _edge_list(2, 3_000, 20, 20, long_rows=((1_500, 200_000),)),
    # The first and the last row are the long ones.
    "long-edge-rows": _edge_list(3, 2_000, 10, 5, long_rows=((0, 70_000), (1_999, 70_000))),
    "self-links-and-repeats": _edge_list(4, 5_000, 64, 2),
    "no-links": (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)),
    "one-page-one-self-link": (np.array([0]), np.array([0])),
}


class TestLinksCsr:
    """The row-chunked dedupe equals the one-shot ``np.unique`` form."""

    @pytest.mark.parametrize("name", EDGE_LISTS)
    @pytest.mark.parametrize("chunk", [None, 1, 7, 1_000])
    def test_equals_one_shot_oracle(self, name, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(linker, "_CHUNK", chunk)
        sources, targets = EDGE_LISTS[name]
        n_pages = int(sources.max()) + 3 if len(sources) else 4
        offsets, csr_targets = linker.links_csr(n_pages, sources, targets)
        want_offsets, want_targets = _links_csr_one_shot(n_pages, sources, targets)
        assert offsets.dtype == csr_targets.dtype == np.int64
        np.testing.assert_array_equal(offsets, want_offsets)
        np.testing.assert_array_equal(csr_targets, want_targets)

    def test_generated_edges_equal_one_shot(self, setup, monkeypatch):
        profile, hosts, lang_code, mask, attractiveness = setup
        sources, targets = build_edges(
            profile, hosts, lang_code, mask, attractiveness, np.random.default_rng(5)
        )
        assert sources.dtype == targets.dtype == np.int64
        monkeypatch.setattr(linker, "_CHUNK", 4_096)
        assert len(sources) > 4 * linker._CHUNK
        got = linker.links_csr(profile.n_pages, sources, targets)
        want = _links_csr_one_shot(profile.n_pages, sources, targets)
        for got_column, want_column in zip(got, want):
            np.testing.assert_array_equal(got_column, want_column)


class TestPiecewiseDraws:
    """``build_edges`` draws its uniforms in pieces; the stream is the one call's."""

    @pytest.mark.parametrize("pieces", [(1,), (3, 5), (65_536, 1, 70_000), (0, 10, 0, 7)])
    def test_pieces_of_random_equal_one_call(self, pieces):
        whole = np.random.default_rng(11).random(sum(pieces))
        rng = np.random.default_rng(11)
        joined = np.concatenate([rng.random(size) for size in pieces])
        np.testing.assert_array_equal(joined, whole)
        # The streams stay aligned past the pieces, too.
        follower = np.random.default_rng(11)
        follower.random(sum(pieces))
        assert rng.random() == follower.random()

    def test_pool_sample_equals_one_shot_sampling(self, setup, monkeypatch):
        _, _, _, _, attractiveness = setup
        page_ids = np.arange(100, 900, dtype=np.int32)
        weights = attractiveness[100:900]
        cumulative = np.cumsum(weights)
        rng = np.random.default_rng(12)
        draws = rng.random(10_000) * cumulative[-1]
        indices = np.minimum(np.searchsorted(cumulative, draws, side="right"), len(page_ids) - 1)
        monkeypatch.setattr(linker, "_CHUNK", 999)
        sampled = linker._WeightedPool(page_ids, weights).sample(10_000, np.random.default_rng(12))
        np.testing.assert_array_equal(sampled, page_ids[indices])

    def test_build_edges_is_piece_size_invariant(self, setup, monkeypatch):
        whole = build_edges(*setup, np.random.default_rng(6))
        monkeypatch.setattr(linker, "_CHUNK", 333)
        pieces = build_edges(*setup, np.random.default_rng(6))
        for whole_column, pieces_column in zip(whole, pieces):
            np.testing.assert_array_equal(whole_column, pieces_column)
