"""Unit tests for the simplified context focused crawler (paper §2.2)."""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.frontier import PriorityFrontier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import ContextGraphStrategy
from repro.core.strategies.context_graph import build_context_layers, host_layer_table
from repro.errors import ConfigError
from repro.webspace.crawllog import CrawlLog
from repro.webspace.linkdb import LinkDB
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import A, B, C, D, E, F, SEED, english_page, thai_page


class TestContextLayers:
    def test_layers_from_tiny_web(self, tiny_log):
        db = LinkDB(tiny_log)
        layers = build_context_layers(db, [C], layers=2)
        # C is layer 0; B links to C → layer 1; SEED links to B → layer 2.
        assert layers[C] == 0
        assert layers[B] == 1
        assert layers[SEED] == 2

    def test_layer_cap_respected(self, tiny_log):
        db = LinkDB(tiny_log)
        layers = build_context_layers(db, [F], layers=1)
        assert layers == {F: 0, E: 1}

    def test_smallest_layer_wins(self):
        # Two paths of different length into the same source.
        s, a, target = "http://s.th/", "http://a.th/", "http://t.th/"
        log = CrawlLog(
            [
                thai_page(s, outlinks=(a, target)),
                thai_page(a, outlinks=(target,)),
                thai_page(target),
            ]
        )
        layers = build_context_layers(LinkDB(log), [target], layers=3)
        assert layers[s] == 1  # direct link, not the 2-hop path

    def test_host_layer_table_minimum(self):
        layers = {
            "http://h.example/a": 2,
            "http://h.example/b": 1,
            "http://other.example/": 0,
        }
        table = host_layer_table(layers)
        assert table == {"h.example": 1, "other.example": 0}


class TestContextGraphStrategy:
    def make(self, tiny_log, layers=3):
        return ContextGraphStrategy(LinkDB(tiny_log), [SEED, A], layers=layers)

    def test_uses_priority_frontier(self, tiny_log):
        assert isinstance(self.make(tiny_log).make_frontier(), PriorityFrontier)

    def test_rejects_zero_layers(self, tiny_log):
        with pytest.raises(ConfigError):
            ContextGraphStrategy(LinkDB(tiny_log), [SEED], layers=0)

    def test_context_sizes_reported(self, tiny_log):
        strategy = self.make(tiny_log)
        assert strategy.context_sizes[0] == 2  # the two seeds

    def test_nothing_discarded_full_coverage(self, tiny_web, tiny_log):
        strategy = self.make(tiny_log)
        result = CrawlSession(
            CrawlRequest(
                strategy=strategy,
                web=tiny_web,
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
            ),
            SessionConfig(sample_interval=1),
        ).run()
        assert result.final_coverage == 1.0
        assert result.pages_crawled == 8

    def test_near_layer_hosts_crawled_before_unknown(self):
        """URLs on hosts near the target class pop before unknown hosts."""
        seed = "http://s.th/"
        near, far = "http://near.th/p1", "http://faraway.com/p1"
        target = "http://near.th/target"
        log = CrawlLog(
            [
                thai_page(seed, outlinks=(far, near)),
                thai_page(near, outlinks=()),
                english_page(far),
                thai_page(target, outlinks=(seed,)),
            ]
        )
        db = LinkDB(log)
        # Context graph around `target`: its host ("near.th") is layer 0,
        # seed's host layer 1.
        strategy = ContextGraphStrategy(db, [target], layers=2)
        urls = []
        CrawlSession(
            CrawlRequest(
                strategy=strategy,
                web=VirtualWebSpace(log),
                classifier=Classifier(Language.THAI),
                seeds=(seed,),
            ),
            SessionConfig(sample_interval=1, on_fetch=lambda event: urls.append(event.url)),
        ).run()
        assert urls.index(near) < urls.index(far)

    def test_unparseable_outlink_gets_bottom_priority(self, tiny_log):
        strategy = self.make(tiny_log)
        assert strategy._layer_priority("not a url") == 0
