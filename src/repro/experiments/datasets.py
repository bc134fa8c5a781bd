"""Dataset construction: generate a universe, then capture it.

The paper's crawl logs "were acquired by actually crawling the Web to
get the snapshot of the real Web space" (§5.1) — with hard-focused +
limited-distance for the Japanese set and soft-focused +
limited-distance for the Thai set.  We replicate that two-stage process:

1. :func:`repro.graphgen.generate_universe` synthesizes a raw web;
2. a **capture crawl** with the corresponding combined strategy walks it
   from the seeds; every *visited* URL's record (full outlink list
   included) becomes the dataset.  ``capture_kind="none"`` skips it and
   keeps the raw universe.

Replayed experiments then run against the captured log, which gives the
same closure property the paper relies on: the soft-focused strategy can
reach 100% coverage because everything in the log was reachable when the
log was captured.

On disk a dataset is one columnar page store (``.lswc``): its header
carries the name, profile, seeds and capture kind and depth.
:func:`build_dataset_store` writes one, :func:`open_dataset_store` serves
one from disk and :func:`read_dataset` reads one into memory.  The disk
cache of :func:`load_or_build_dataset` is such a store per profile
fingerprint and capture parameters; set ``REPRO_LSWC_CACHE`` to relocate
it, or pass ``cache_dir=None`` to disable caching.
"""

from __future__ import annotations

import os
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, replace
from pathlib import Path

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies.combined import hard_limited_strategy, soft_limited_strategy
from repro.errors import ConfigError
from repro.graphgen.config import DatasetProfile
from repro.graphgen.generator import generate_universe
from repro.graphgen.profiles import profile_by_name
from repro.webspace.base import PageSource
from repro.webspace.crawllog import CrawlLog
from repro.webspace.stats import DatasetStats, compute_stats
from repro.webspace.store import PageStore, StoreBuilder
from repro.webspace.virtualweb import VirtualWebSpace

#: Capture tunneling depth per capture kind (paper does not publish the
#: authors' N; these are chosen so the captured relevance ratios land on
#: the published Table 3 values).
DEFAULT_CAPTURE_N = {"soft-limited": 3, "hard-limited": 3}


@dataclass(frozen=True, slots=True)
class Dataset:
    """A captured, replayable snapshot plus its bookkeeping.

    ``crawl_log`` is any :class:`~repro.webspace.base.PageSource`: the
    in-memory :class:`~repro.webspace.crawllog.CrawlLog` or a
    on-disk :class:`~repro.webspace.store.PageStore` opened by
    :func:`open_dataset_store` — every consumer downstream (web space,
    stats, coverage denominator) is backend-agnostic.
    """

    name: str
    profile: DatasetProfile
    crawl_log: PageSource
    seed_urls: tuple[str, ...]
    capture_kind: str
    capture_n: int

    @property
    def target_language(self) -> Language:
        return self.profile.target_language

    def stats(self) -> DatasetStats:
        """Table 3 characteristics of this dataset."""
        return compute_stats(self.crawl_log, self.target_language)

    def relevant_urls(self) -> AbstractSet[str]:
        """The explicit-recall denominator set, memoised by the page source.

        Store-backed datasets answer with a lazy column-computed view
        (:class:`~repro.webspace.store.StoreRelevantSet`) — same
        membership and size, no full-record scan.
        """
        return self.crawl_log.relevant_url_view(self.target_language)

    def web(self, body_synthesizer=None) -> VirtualWebSpace:
        """A fresh virtual web space over this dataset."""
        return VirtualWebSpace(self.crawl_log, body_synthesizer=body_synthesizer)


def capture_kind_for(profile: DatasetProfile) -> str:
    """The paper's capture strategy for a profile's kind of web space."""
    return "hard-limited" if profile.target_language is Language.JAPANESE else "soft-limited"


def _checked_capture_n(capture_kind: str, capture_n: int | None) -> int:
    """``capture_n`` defaulted for ``capture_kind``, after checking both."""
    if capture_kind == "none":
        return 0
    if capture_kind not in DEFAULT_CAPTURE_N:
        raise ConfigError(
            f"capture_kind must be none, soft-limited or hard-limited, got {capture_kind!r}"
        )
    if capture_n is None:
        capture_n = DEFAULT_CAPTURE_N[capture_kind]
    if capture_n < 0:
        raise ConfigError("capture_n must be >= 0")
    return capture_n


def _capture(
    profile: DatasetProfile,
    universe: PageSource,
    seed_urls: tuple[str, ...],
    capture_kind: str,
    capture_n: int,
) -> Dataset:
    """Run the capture crawl over ``universe``; its visited records are the dataset."""
    if capture_kind == "soft-limited":
        strategy = soft_limited_strategy(capture_n)
    else:
        strategy = hard_limited_strategy(capture_n)
    visited: list[str] = []
    CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=VirtualWebSpace(universe),
            classifier=Classifier(profile.target_language),
            seeds=seed_urls,
            relevant_urls=frozenset(),  # capture needs no coverage accounting
        ),
        SessionConfig(
            sample_interval=1_000_000,
            on_fetch=lambda event: visited.append(event.url),
        ),
    ).run()
    return Dataset(
        name=profile.name,
        profile=profile,
        crawl_log=CrawlLog(record for url in visited if (record := universe.get(url)) is not None),
        seed_urls=seed_urls,
        capture_kind=capture_kind,
        capture_n=capture_n,
    )


def build_dataset(
    profile: DatasetProfile,
    capture_kind: str | None = None,
    capture_n: int | None = None,
) -> Dataset:
    """Generate a universe and capture it into a dataset (no caching).

    ``capture_kind="none"`` returns the raw universe: the ablations that
    vary a generator knob compare on it, since a capture crawl would
    itself respond to the knob and confound the measurement.
    """
    if capture_kind is None:
        capture_kind = capture_kind_for(profile)
    capture_n = _checked_capture_n(capture_kind, capture_n)
    universe = generate_universe(profile)
    if capture_kind == "none":
        return Dataset(profile.name, profile, universe.crawl_log, universe.seed_urls, "none", 0)
    return _capture(profile, universe.crawl_log, universe.seed_urls, capture_kind, capture_n)


# --------------------------------------------------------------------------
# Columnar on-disk datasets
# --------------------------------------------------------------------------

def _write_store(path: Path, dataset: Dataset) -> None:
    """Write ``dataset``'s records, and the meta :func:`open_dataset_store`
    reads back, to a store file at ``path``."""
    builder = StoreBuilder()
    builder.add_all(dataset.crawl_log)
    builder.finish(
        path,
        meta={
            "name": dataset.name,
            "profile": dataset.profile.to_json_dict(),
            "seed_urls": list(dataset.seed_urls),
            "capture_kind": dataset.capture_kind,
            "capture_n": dataset.capture_n,
        },
    )


def build_dataset_store(
    profile: DatasetProfile,
    path: Path | str,
    capture_kind: str | None = None,
    capture_n: int | None = None,
) -> Path:
    """Build a dataset straight into a columnar page store at ``path``.

    ``capture_kind="none"`` writes the raw universe via the streaming
    generator — no :class:`~repro.webspace.page.PageRecord` objects are
    materialised, so this path scales to million-page webs.  The capture
    kinds run the same capture crawl as :func:`build_dataset`, but over a
    store-backed universe: the universe is staged to ``path + ".universe.tmp"``,
    crawled through an on-disk :class:`~repro.webspace.store.PageStore`,
    and only the *visited* records are written to the final file.

    Returns ``path`` (as a :class:`~pathlib.Path`).
    """
    from repro.graphgen.stream import write_universe_store

    path = Path(path)
    if capture_kind is None:
        capture_kind = capture_kind_for(profile)
    if capture_kind == "none":
        write_universe_store(profile, path)
        return path
    capture_n = _checked_capture_n(capture_kind, capture_n)

    universe_path = path.with_name(path.name + ".universe.tmp")
    write_universe_store(profile, universe_path)
    try:
        with PageStore.open(universe_path) as universe:
            _write_store(
                path, _capture(profile, universe, universe.seed_urls, capture_kind, capture_n)
            )
    finally:
        universe_path.unlink(missing_ok=True)
    return path


def open_dataset_store(path: Path | str) -> Dataset:
    """Open a store file written by :func:`build_dataset_store` as a Dataset.

    The returned dataset's ``crawl_log`` is the on-disk
    :class:`~repro.webspace.store.PageStore`; close it (or use it as a
    context manager) when done to release the file.
    """
    store = PageStore.open(path)
    meta = store.meta
    try:
        profile = DatasetProfile.from_json_dict(meta["profile"])
    except (KeyError, TypeError) as exc:
        store.close()
        raise ConfigError(f"store at {path} carries no dataset profile: {exc}") from None
    return Dataset(
        name=meta.get("name", profile.name),
        profile=profile,
        crawl_log=store,
        seed_urls=tuple(meta.get("seed_urls", ())),
        capture_kind=meta.get("capture_kind", "none"),
        capture_n=int(meta.get("capture_n", 0)),
    )


def read_dataset(path: Path | str) -> Dataset:
    """Read a store file into an in-memory dataset and close the file.

    The same dataset as :func:`open_dataset_store`, but its ``crawl_log``
    is a :class:`~repro.webspace.crawllog.CrawlLog` of every record, in
    page-id order.
    """
    dataset = open_dataset_store(path)
    with dataset.crawl_log as store:
        return replace(dataset, crawl_log=CrawlLog(store))


# --------------------------------------------------------------------------
# Disk cache
# --------------------------------------------------------------------------

def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_LSWC_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-lswc"


def _cache_key(profile: DatasetProfile, capture_kind: str, capture_n: int) -> str:
    return f"{profile.name}-{profile.fingerprint()}-{capture_kind}-n{capture_n}"


def load_or_build_dataset(
    profile: DatasetProfile | str,
    capture_kind: str | None = None,
    capture_n: int | None = None,
    cache_dir: Path | str | None = "default",
    force: bool = False,
) -> Dataset:
    """Like :func:`build_dataset`, but memoised on disk as one page store.

    A miss builds in memory and writes ``<key>.lswc`` under a temporary
    name in the cache directory, then renames it into place: a build
    killed mid-write leaves no ``<key>.lswc``, so the next call builds.
    A hit is :func:`read_dataset` of that file.

    Args:
        profile: a :class:`DatasetProfile` or a registered profile name
            (``"thai"`` / ``"japanese"``).
        capture_kind: ``soft-limited`` / ``hard-limited`` / ``none``;
            defaults per the paper's choice for the profile's language.
        capture_n: tunneling depth of the capture crawl.
        cache_dir: ``"default"`` → ``$REPRO_LSWC_CACHE`` or
            ``~/.cache/repro-lswc``; ``None`` disables caching.
        force: rebuild even when a cached copy exists.
    """
    if isinstance(profile, str):
        profile = profile_by_name(profile)
    if capture_kind is None:
        capture_kind = capture_kind_for(profile)
    capture_n = _checked_capture_n(capture_kind, capture_n)

    if cache_dir is None:
        return build_dataset(profile, capture_kind, capture_n)
    directory = default_cache_dir() if cache_dir == "default" else Path(cache_dir)
    path = directory / f"{_cache_key(profile, capture_kind, capture_n)}.lswc"
    if not force and path.exists():
        return read_dataset(path)

    dataset = build_dataset(profile, capture_kind, capture_n)
    directory.mkdir(parents=True, exist_ok=True)
    staged = directory / f".{path.name}.{os.getpid()}.tmp"
    try:
        _write_store(staged, dataset)
        os.replace(staged, path)
    finally:
        staged.unlink(missing_ok=True)
    return dataset
