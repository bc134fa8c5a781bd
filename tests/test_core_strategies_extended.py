"""Unit tests for the extension strategies (distilled-soft, backlink)."""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.frontier import ReprioritizableFrontier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import (
    BacklinkCountStrategy,
    DistilledSoftStrategy,
    SimpleStrategy,
    get_strategy,
)
from repro.webspace.crawllog import CrawlLog
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import SEED, english_page, thai_page

THAI_SET_KW = dict(sample_interval=1)


def run(web, strategy, seeds, relevant=frozenset()):
    urls = []
    result = CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=tuple(seeds),
            relevant_urls=relevant,
        ),
        SessionConfig(on_fetch=lambda event: urls.append(event.url), **THAI_SET_KW),
    ).run()
    return result, urls


class TestDistilledSoft:
    def test_uses_reprioritizable_frontier(self):
        assert isinstance(DistilledSoftStrategy().make_frontier(), ReprioritizableFrontier)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            DistilledSoftStrategy(distill_every=0)

    def test_full_coverage_on_tiny_web(self, tiny_web):
        from repro.webspace.stats import relevant_url_set
        from repro.charset.languages import Language as L

        relevant = relevant_url_set(tiny_web.crawl_log, L.THAI)
        result, _ = run(tiny_web, DistilledSoftStrategy(distill_every=2), (SEED,), relevant)
        assert result.final_coverage == 1.0

    def test_distillation_raises_hub_neighbor_priorities(self):
        """A hub (irrelevant page linking to many Thai pages) gets its
        queued neighbors promoted above plain irrelevant-referrer URLs."""
        # seed(t) -> hub(e), noise(e)
        # hub -> t1..t4 (thai)   noise -> n1..n4 (english)
        seed = "http://s.th/"
        hub = "http://hub.com/"
        noise = "http://noise.com/"
        thai_targets = tuple(f"http://t{index}.th/" for index in range(4))
        noise_targets = tuple(f"http://n{index}.com/" for index in range(4))
        pages = [
            thai_page(seed, outlinks=(hub, noise)),
            english_page(hub, outlinks=thai_targets),
            english_page(noise, outlinks=noise_targets),
            *[thai_page(url) for url in thai_targets],
            *[english_page(url) for url in noise_targets],
        ]
        web = VirtualWebSpace(CrawlLog(pages))
        strategy = DistilledSoftStrategy(distill_every=1, top_fraction=0.34)
        result, urls = run(web, strategy, (seed,), frozenset({seed, *thai_targets}))
        assert result.final_coverage == 1.0
        assert strategy.distillations > 0
        # All thai hub-targets crawled before any noise target: without
        # the distiller they share the low band FIFO with the noise.
        last_thai = max(urls.index(url) for url in thai_targets)
        first_noise = min(urls.index(url) for url in noise_targets)
        assert strategy.reprioritized > 0
        assert last_thai < first_noise

    def test_registry(self):
        assert isinstance(get_strategy("distilled-soft"), DistilledSoftStrategy)


class TestBacklinkCount:
    def test_uses_reprioritizable_frontier(self):
        assert isinstance(BacklinkCountStrategy().make_frontier(), ReprioritizableFrontier)

    def test_most_referenced_crawled_first(self):
        # seed links a, b, c; a and b both link POPULAR; c links LONELY.
        seed = "http://s.th/"
        a, b, c = "http://a.com/", "http://b.com/", "http://c.com/"
        popular, lonely = "http://popular.com/", "http://lonely.com/"
        pages = [
            thai_page(seed, outlinks=(a, b, c)),
            english_page(a, outlinks=(popular,)),
            english_page(b, outlinks=(popular,)),
            english_page(c, outlinks=(lonely,)),
            english_page(popular),
            english_page(lonely),
        ]
        web = VirtualWebSpace(CrawlLog(pages))
        _, urls = run(web, BacklinkCountStrategy(), (seed,))
        assert urls.index(popular) < urls.index(lonely)

    def test_crawls_everything_reachable(self, tiny_web):
        from repro.webspace.linkdb import LinkDB

        _, urls = run(tiny_web, BacklinkCountStrategy(), (SEED,))
        assert set(urls) == LinkDB(tiny_web.crawl_log).reachable_from([SEED])

    def test_no_duplicate_fetches_despite_updates(self, tiny_web):
        _, urls = run(tiny_web, BacklinkCountStrategy(), (SEED,))
        assert len(urls) == len(set(urls))

    def test_registry(self):
        assert isinstance(get_strategy("backlink-count"), BacklinkCountStrategy)


class TestTickHook:
    def test_default_tick_is_noop(self, tiny_web):
        # SimpleStrategy does not override tick; crawl must be unchanged.
        result, _ = run(tiny_web, SimpleStrategy(mode="soft"), (SEED,))
        assert result.pages_crawled == 8
