"""Unit tests for the adversarial web space wrapper.

Each scenario is exercised through the unmodified ``fetch`` surface —
exactly how every engine sees it — with explicitly-listed hostile hosts
so the assertions don't depend on seeded draws.
"""

import pytest

from repro.adversary import AdversarialWebSpace, AdversaryModel, AdversaryProfile
from repro.adversary.web import ALIAS_QUERY, HOP_PREFIX, SOFT404_SIZE, TRAP_PREFIX
from repro.errors import ConfigError
from repro.webspace.crawllog import CrawlLog
from repro.webspace.virtualweb import VirtualWebSpace

from conftest import SEED, A, thai_page

HOST = "seed.co.th"


def bare_web():
    return VirtualWebSpace(CrawlLog([thai_page(SEED, outlinks=(A,)), thai_page(A)]))


def wrap(profile, seed=0, journal=False, web=None):
    return AdversarialWebSpace(
        web if web is not None else bare_web(),
        AdversaryModel(profile=profile, seed=seed),
        record_journal=journal,
    )


class TestEmptyProfile:
    def test_passthrough_is_identical(self):
        web = bare_web()
        adversarial = AdversarialWebSpace(web, AdversaryModel())
        assert adversarial.fetch(SEED) == bare_web().fetch(SEED)
        assert adversarial.fetch_count == web.fetch_count
        assert SEED in adversarial
        assert adversarial.crawl_log is web.crawl_log

    def test_no_injections_ever(self):
        adversarial = wrap(AdversaryProfile(), journal=True)
        adversarial.fetch(SEED)
        adversarial.fetch(A)
        assert adversarial.journal == []
        assert all(count == 0 for count in adversarial.injected.values())


class TestSpiderTraps:
    PROFILE = AdversaryProfile(trap_hosts=(HOST,), trap_fanout=3)

    def test_organic_page_gains_entry_links(self):
        response = wrap(self.PROFILE).fetch(SEED)
        entries = [link for link in response.outlinks if TRAP_PREFIX in link]
        assert entries and all(link.startswith(f"http://{HOST}{TRAP_PREFIX}") for link in entries)
        # Organic links survive alongside the planted ones.
        assert A in response.outlinks

    def test_trap_page_answers_200_with_deeper_children(self):
        adversarial = wrap(self.PROFILE)
        entry = next(
            link for link in adversarial.fetch(SEED).outlinks if TRAP_PREFIX in link
        )
        trap = adversarial.fetch(entry)
        assert trap.ok and trap.adversary == "trap"
        assert len(trap.outlinks) == 3
        assert all(child.startswith(entry + "/") for child in trap.outlinks)

    def test_subtree_is_unbounded(self):
        adversarial = wrap(self.PROFILE)
        url = next(link for link in adversarial.fetch(SEED).outlinks if TRAP_PREFIX in link)
        for _ in range(10):
            response = adversarial.fetch(url)
            assert response.ok and response.outlinks
            url = response.outlinks[0]

    def test_non_trap_host_is_untouched(self):
        response = wrap(AdversaryProfile(trap_hosts=("other.com",))).fetch(SEED)
        assert response == bare_web().fetch(SEED)


class TestRedirectChains:
    PROFILE = AdversaryProfile(redirect_rate=1.0, redirect_hops=2)

    def test_chain_resolves_to_canonical_content(self):
        adversarial = wrap(self.PROFILE)
        response = adversarial.fetch(SEED)
        hops = 0
        while response.redirect_to is not None:
            assert response.status == 301 and response.adversary == "redirect"
            hops += 1
            response = adversarial.fetch(response.redirect_to)
        # The content arrives after redirect_hops + 1 fetches: the
        # initial 301 plus one per interior hop (the last hop serves it).
        assert hops == 2
        assert response.url == SEED and response.ok
        assert response.record == bare_web().fetch(SEED).record

    def test_loop_never_terminates(self):
        profile = AdversaryProfile(redirect_rate=1.0, redirect_hops=1, redirect_loop_rate=1.0)
        adversarial = wrap(profile)
        response = adversarial.fetch(SEED)
        seen = set()
        for _ in range(20):
            assert response.redirect_to is not None
            seen.add(response.url)
            response = adversarial.fetch(response.redirect_to)
        assert len(seen) <= 3  # the chain cycles over its hop URLs

    def test_unminted_hop_url_is_dead(self):
        adversarial = wrap(self.PROFILE)
        response = adversarial.fetch(f"http://{HOST}{HOP_PREFIX}deadbeef/1")
        assert not response.ok and response.redirect_to is None


class TestSoft404:
    def test_dead_url_answers_boilerplate(self):
        adversarial = wrap(AdversaryProfile(soft404_rate=1.0, soft404_fanout=2))
        response = adversarial.fetch(f"http://{HOST}/p/404.html")
        assert response.ok and response.adversary == "soft404"
        assert response.size == SOFT404_SIZE
        assert len(response.outlinks) == 2

    def test_live_url_is_untouched(self):
        adversarial = wrap(AdversaryProfile(soft404_rate=1.0))
        assert adversarial.fetch(SEED) == bare_web().fetch(SEED)


class TestAliases:
    PROFILE = AdversaryProfile(alias_hosts=("a.co.th",))

    def test_links_into_hostile_host_are_rewritten(self):
        response = wrap(self.PROFILE).fetch(SEED)
        (alias,) = response.outlinks
        assert alias.startswith(f"{A}?{ALIAS_QUERY}")

    def test_alias_serves_canonical_content_under_alias_url(self):
        adversarial = wrap(self.PROFILE)
        (alias,) = adversarial.fetch(SEED).outlinks
        response = adversarial.fetch(alias)
        assert response.url == alias and response.adversary == "alias"
        assert response.record == bare_web().fetch(A).record

    def test_aliases_churn_per_referrer(self):
        adversarial = wrap(self.PROFILE)
        model = adversarial.model
        one = model.token_hex("alias", f"{SEED}->{A}", 12)
        other = model.token_hex("alias", f"http://x.co.th/->{A}", 12)
        assert one != other


class TestMislabel:
    def test_declared_charset_swaps_body_keeps_truth(self):
        adversarial = wrap(AdversaryProfile(mislabel_rate=1.0))
        response = adversarial.fetch(SEED)
        assert response.charset == "EUC-JP"  # TIS-620's lie
        assert response.adversary == "mislabel"
        assert response.record.charset == "TIS-620"


class TestSnapshotRestore:
    PROFILE = AdversaryProfile(redirect_rate=1.0, redirect_hops=2)

    def test_round_trip_replays_chains(self):
        adversarial = wrap(self.PROFILE, seed=5, journal=True)
        first = adversarial.fetch(SEED)
        state = adversarial.snapshot()

        resumed = wrap(self.PROFILE, seed=5)
        resumed.restore(state)
        # The resumed wrapper knows the in-flight chain's token.
        assert resumed.fetch(first.redirect_to).redirect_to is not None
        assert resumed.fetch_index == state["fetch_index"] + 1

    def test_restore_rejects_seed_mismatch(self):
        state = wrap(self.PROFILE, seed=1).snapshot()
        with pytest.raises(ConfigError, match="seed"):
            wrap(self.PROFILE, seed=2).restore(state)

    def test_restore_overwrites_tallies(self):
        adversarial = wrap(self.PROFILE, seed=5)
        adversarial.fetch(SEED)
        state = adversarial.snapshot()
        resumed = wrap(self.PROFILE, seed=5)
        resumed.injected["redirects"] = 99
        resumed.restore(state)
        assert resumed.injected["redirects"] == state["injected"]["redirects"]


class TestJournal:
    def test_journal_records_fetch_index_and_scenario(self):
        adversarial = wrap(AdversaryProfile(soft404_rate=1.0), journal=True)
        adversarial.fetch(SEED)  # live, no intervention
        adversarial.fetch(f"http://{HOST}/p/404.html")
        assert adversarial.journal == [(2, f"http://{HOST}/p/404.html", "soft404")]
