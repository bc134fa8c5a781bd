"""Unit tests for dataset construction and caching."""

import pytest

import repro.experiments.datasets as datasets
from repro.charset.languages import Language
from repro.errors import ConfigError, CrawlLogError
from repro.experiments.datasets import (
    build_dataset,
    build_dataset_store,
    capture_kind_for,
    load_or_build_dataset,
    read_dataset,
)
from repro.experiments.tournament import cued_thai_profile
from repro.graphgen.generator import generate_universe
from repro.graphgen.profiles import japanese_profile, korean_profile, thai_profile
from repro.webspace.linkdb import LinkDB

SMALL = thai_profile().scaled(0.04)

#: The webs the in-memory build and the store build must agree on.
IDENTITY_PROFILES = {
    "thai-0.02": lambda: thai_profile().scaled(0.02),
    "cued-thai-0.02": lambda: cued_thai_profile(0.02),
    "japanese-0.05": lambda: japanese_profile().scaled(0.05),
    "korean-0.05": lambda: korean_profile().scaled(0.05),
    "thai-0.25": lambda: thai_profile().scaled(0.25),
}


class TestCaptureSemantics:
    def test_captured_is_subset_of_universe(self, thai_dataset):
        universe = generate_universe(thai_dataset.profile)
        for record in thai_dataset.crawl_log:
            assert record == universe.crawl_log[record.url]

    def test_every_captured_page_reachable_from_seeds(self, thai_dataset):
        db = LinkDB(thai_dataset.crawl_log)
        reached = db.reachable_from(thai_dataset.seed_urls)
        for url in thai_dataset.crawl_log.urls():
            assert url in reached

    def test_seeds_in_dataset(self, thai_dataset):
        for seed in thai_dataset.seed_urls:
            assert seed in thai_dataset.crawl_log

    def test_capture_kind_defaults(self):
        assert capture_kind_for(thai_profile()) == "soft-limited"
        assert capture_kind_for(japanese_profile()) == "hard-limited"

    def test_dataset_smaller_than_universe(self, thai_dataset):
        assert len(thai_dataset.crawl_log) < thai_dataset.profile.n_pages

    def test_invalid_capture_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_dataset(SMALL, capture_kind="teleport")

    def test_invalid_capture_kind_rejected_by_the_cache_too(self, tmp_path):
        with pytest.raises(ConfigError, match="teleport"):
            load_or_build_dataset(SMALL, capture_kind="teleport", cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_none_is_the_raw_universe(self):
        universe = generate_universe(SMALL)
        dataset = build_dataset(SMALL, "none", capture_n=5)
        assert list(dataset.crawl_log) == list(universe.crawl_log)
        assert dataset.seed_urls == universe.seed_urls
        assert (dataset.capture_kind, dataset.capture_n) == ("none", 0)

    def test_invalid_capture_n_rejected(self):
        with pytest.raises(ConfigError):
            build_dataset(SMALL, capture_n=-1)

    def test_larger_capture_n_captures_more(self):
        small = build_dataset(SMALL, capture_n=0)
        large = build_dataset(SMALL, capture_n=3)
        assert len(large.crawl_log) > len(small.crawl_log)

    def test_deterministic(self):
        a = build_dataset(SMALL)
        b = build_dataset(SMALL)
        assert list(a.crawl_log.urls()) == list(b.crawl_log.urls())


class TestDatasetAccessors:
    def test_stats(self, thai_dataset):
        stats = thai_dataset.stats()
        assert stats.target_language is Language.THAI
        assert stats.relevant_html_pages > 0

    def test_relevant_urls_match_stats(self, thai_dataset):
        assert len(thai_dataset.relevant_urls()) == thai_dataset.stats().relevant_html_pages

    def test_web_factory(self, thai_dataset):
        web = thai_dataset.web()
        seed = thai_dataset.seed_urls[0]
        assert web.fetch(seed).ok


class TestBuildIdentity:
    """The in-memory build and the store build are one dataset."""

    @pytest.mark.parametrize("capture_kind", [None, "none"])
    @pytest.mark.parametrize("name", sorted(IDENTITY_PROFILES))
    def test_a_store_build_reads_back_as_the_memory_build(self, name, capture_kind, tmp_path):
        profile = IDENTITY_PROFILES[name]()
        built = build_dataset(profile, capture_kind)
        read = read_dataset(build_dataset_store(profile, tmp_path / "d.lswc", capture_kind))
        assert read.name == built.name
        assert read.profile == built.profile
        assert read.seed_urls == built.seed_urls
        assert (read.capture_kind, read.capture_n) == (built.capture_kind, built.capture_n)
        assert list(read.crawl_log) == list(built.crawl_log)


class TestCache:
    def test_round_trip(self, tmp_path):
        first = load_or_build_dataset(SMALL, cache_dir=tmp_path)
        assert (len(list(tmp_path.iterdir()))) == 1  # one page store
        second = load_or_build_dataset(SMALL, cache_dir=tmp_path)
        assert list(second.crawl_log.urls()) == list(first.crawl_log.urls())
        assert second.seed_urls == first.seed_urls
        assert second.capture_kind == first.capture_kind

    def test_one_store_file_per_key(self, tmp_path):
        dataset = load_or_build_dataset(SMALL, cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        assert path.suffix == ".lswc"
        assert path.read_bytes()[:8] == b"LSWCPGS2"
        cached = read_dataset(path)
        assert (cached.name, cached.profile, cached.seed_urls) == (
            dataset.name, dataset.profile, dataset.seed_urls,
        )
        assert (cached.capture_kind, cached.capture_n) == ("soft-limited", 3)
        assert list(cached.crawl_log) == list(dataset.crawl_log)

    def test_a_hit_does_not_build(self, tmp_path, monkeypatch):
        first = load_or_build_dataset(SMALL, cache_dir=tmp_path)

        def refuse(*_args, **_kwargs):
            raise AssertionError("a cache hit built the dataset")

        monkeypatch.setattr(datasets, "build_dataset", refuse)
        second = load_or_build_dataset(SMALL, cache_dir=tmp_path)
        assert list(second.crawl_log) == list(first.crawl_log)

    def test_force_rebuilds(self, tmp_path, monkeypatch):
        load_or_build_dataset(SMALL, cache_dir=tmp_path)
        builds = []
        real_build = datasets.build_dataset

        def counting(*args, **kwargs):
            builds.append(args)
            return real_build(*args, **kwargs)

        monkeypatch.setattr(datasets, "build_dataset", counting)
        rebuilt = load_or_build_dataset(SMALL, cache_dir=tmp_path, force=True)
        assert len(builds) == 1
        assert len(rebuilt.crawl_log) > 0
        assert len(list(tmp_path.iterdir())) == 1

    def test_a_truncated_cache_file_is_an_error_naming_it(self, tmp_path):
        load_or_build_dataset(SMALL, cache_dir=tmp_path)
        (path,) = tmp_path.iterdir()
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(CrawlLogError, match=path.name):
            load_or_build_dataset(SMALL, cache_dir=tmp_path)

    def test_a_write_that_fails_midway_leaves_no_cache_file(self, tmp_path, monkeypatch):
        real_write = datasets._write_store

        def fail_midway(path, dataset):
            real_write(path, dataset)
            raise OSError("disk full")

        monkeypatch.setattr(datasets, "_write_store", fail_midway)
        with pytest.raises(OSError, match="disk full"):
            load_or_build_dataset(SMALL, cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        load_or_build_dataset(SMALL, cache_dir=tmp_path)
        assert [path.suffix for path in tmp_path.iterdir()] == [".lswc"]

    def test_profile_by_name_accepted(self, tmp_path, monkeypatch):
        # Use the tiny profile path only; just exercise the name route
        # with caching disabled to keep it fast.
        dataset = load_or_build_dataset(SMALL, cache_dir=None)
        assert dataset.name.startswith("thai")

    def test_different_capture_params_cached_separately(self, tmp_path):
        load_or_build_dataset(SMALL, capture_n=1, cache_dir=tmp_path)
        load_or_build_dataset(SMALL, capture_n=2, cache_dir=tmp_path)
        assert len(list(tmp_path.iterdir())) == 2
