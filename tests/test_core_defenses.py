"""Engine defense policy: config validation, gate decisions, integration.

The unit half drives :class:`DefensePolicy` directly; the integration
half runs real sessions over hand-built hostile webs and asserts the
gate/extract stages engage (stats move, coverage survives) — on both
the round-based engine and the K-slot scheduler.
"""

import pytest

from repro.adversary import (
    AdversaryModel,
    AdversaryProfile,
    DefenseConfig,
    DefensePolicy,
    shingle_hash,
)
from repro.adversary.defense import NAIVE_REDIRECT_CAP, url_depth
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.errors import ConfigError
from repro.webspace.crawllog import CrawlLog
from repro.webspace.virtualweb import FetchResponse, VirtualWebSpace

from conftest import SEED, A, B, thai_page


class TestDefenseConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_url_depth": 0},
            {"host_page_budget": 0},
            {"max_redirect_hops": -1},
            {"soft404_threshold": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            DefenseConfig(**kwargs)

    def test_default_config_is_disabled(self):
        assert not DefenseConfig().enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_url_depth": 4},
            {"host_page_budget": 10},
            {"max_redirect_hops": 5},
            {"fingerprint_dupes": True},
            {"soft404_threshold": 3},
            {"strip_session_ids": True},
        ],
    )
    def test_any_armed_knob_enables(self, kwargs):
        assert DefenseConfig(**kwargs).enabled

    def test_standard_preset_arms_everything(self):
        standard = DefenseConfig.standard()
        assert standard.enabled
        assert standard.max_url_depth is not None
        assert standard.host_page_budget is not None
        assert standard.max_redirect_hops is not None
        assert standard.fingerprint_dupes
        assert standard.soft404_threshold is not None
        assert standard.strip_session_ids

    def test_json_roundtrip(self):
        config = DefenseConfig.standard()
        assert DefenseConfig.from_json(config.to_json()) == config

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown defense config keys"):
            DefenseConfig.from_json({"max_depth": 4})


class TestUrlDepth:
    @pytest.mark.parametrize(
        "url,depth",
        [
            ("http://h.co.th/", 1),
            ("http://h.co.th", 0),
            ("http://h.co.th/p/1.html", 2),
            ("http://h.co.th/cal/a/b/c", 4),
        ],
    )
    def test_depth(self, url, depth):
        assert url_depth(url) == depth


class TestShingleHash:
    def test_identical_bodies_collide(self):
        body = b"<html>" + b"boilerplate " * 50 + b"</html>"
        assert shingle_hash(body) == shingle_hash(body)

    def test_small_insertion_keeps_most_minima(self):
        base = b"<html><body>" + b"the same boilerplate text here " * 40 + b"</body></html>"
        variant = base.replace(b"</body>", b"<p>sid=abc123</p></body>")
        # A tail insertion may perturb one bucket's minimum but not the
        # bulk of them — near-duplicates stay recognisably close.
        shared = set(shingle_hash(base)[2:].split(".")) & set(
            shingle_hash(variant)[2:].split(".")
        )
        assert len(shared) >= 3

    def test_different_bodies_differ(self):
        a = bytes(range(256)) * 8
        b = bytes(reversed(range(256))) * 8
        assert shingle_hash(a) != shingle_hash(b)


class TestDefensePolicyGate:
    def test_depth_gate(self):
        policy = DefensePolicy(DefenseConfig(max_url_depth=2))
        assert policy.admit("http://h.co.th/p/1.html", "h.co.th")
        assert not policy.admit("http://h.co.th/cal/a/b", "h.co.th")
        assert policy.stats["depth_skips"] == 1

    def test_streak_budget_trips_on_consecutive_irrelevant(self):
        policy = DefensePolicy(DefenseConfig(host_page_budget=3))
        for _ in range(3):
            policy.note_page("h.co.th", relevant=False)
        assert not policy.admit("http://h.co.th/p/9.html", "h.co.th")
        assert policy.stats["host_budget_skips"] == 1

    def test_relevant_page_resets_the_streak(self):
        policy = DefensePolicy(DefenseConfig(host_page_budget=3))
        policy.note_page("h.co.th", relevant=False)
        policy.note_page("h.co.th", relevant=False)
        policy.note_page("h.co.th", relevant=True)
        policy.note_page("h.co.th", relevant=False)
        assert policy.admit("http://h.co.th/p/9.html", "h.co.th")

    def test_streaks_are_per_host(self):
        policy = DefensePolicy(DefenseConfig(host_page_budget=1))
        policy.note_page("bad.co.th", relevant=False)
        assert not policy.admit("http://bad.co.th/p/1.html", "bad.co.th")
        assert policy.admit("http://good.co.th/p/1.html", "good.co.th")

    def test_canonicalize_strips_session_queries(self):
        policy = DefensePolicy(DefenseConfig(strip_session_ids=True))
        assert policy.canonicalize("http://h.co.th/p/1.html?sid=abc") == "http://h.co.th/p/1.html"
        assert policy.canonicalize("http://h.co.th/p/1.html?PHPSESSID=x") == (
            "http://h.co.th/p/1.html"
        )
        # Non-session queries and bare URLs pass through untouched.
        assert policy.canonicalize("http://h.co.th/p/1.html?page=2") is None
        assert policy.canonicalize("http://h.co.th/p/1.html") is None

    def test_canonicalize_off_by_default(self):
        policy = DefensePolicy(DefenseConfig(max_url_depth=4))
        assert policy.canonicalize("http://h.co.th/p/1.html?sid=abc") is None


class TestDefensePolicyFingerprints:
    def _response(self, url, size=1000, body=None):
        return FetchResponse(
            url=url,
            status=200,
            content_type="text/html",
            charset=None,
            outlinks=(),
            size=size,
            body=body,
        )

    def test_duplicate_content_suppresses_links(self):
        policy = DefensePolicy(DefenseConfig(fingerprint_dupes=True))
        body = b"same boilerplate " * 100
        first = self._response("http://h.co.th/p/1.html", body=body)
        second = self._response("http://h.co.th/p/2.html", body=body)
        assert not policy.suppress_links(first, "h.co.th", relevant=False)
        assert policy.suppress_links(second, "h.co.th", relevant=False)
        assert policy.stats["duplicates_collapsed"] == 1

    def test_soft404_threshold_drops_repeating_boilerplate(self):
        policy = DefensePolicy(DefenseConfig(soft404_threshold=2))
        responses = [self._response(f"http://h.co.th/p/{i}.html", size=2048) for i in range(4)]
        drops = [policy.suppress_links(r, "h.co.th", relevant=False) for r in responses]
        # First sighting is fresh; repeats accumulate until the host
        # crosses the threshold, after which links are dropped.
        assert drops[0] is False
        assert drops[-1] is True
        assert policy.stats["soft404_link_drops"] >= 1

    def test_snapshot_restore_round_trips(self):
        policy = DefensePolicy(DefenseConfig.standard())
        policy.note_page("h.co.th", relevant=False)
        policy.suppress_links(self._response("http://h.co.th/p/1.html"), "h.co.th", False)
        policy.stats["depth_skips"] = 5
        state = policy.snapshot()

        resumed = DefensePolicy(DefenseConfig.standard())
        resumed.restore(state)
        assert resumed.snapshot() == state


def hostile_session(
    pages,
    profile,
    defenses=None,
    max_pages=40,
    concurrency=None,
    relevant=(SEED, A),
    **config_kwargs,
):
    """A session over hand-built pages with an explicit adversary."""
    return CrawlSession(
        CrawlRequest(
            strategy="breadth-first",
            web=VirtualWebSpace(CrawlLog(pages)),
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
            relevant_urls=frozenset(relevant),
        ),
        SessionConfig(
            max_pages=max_pages,
            adversary=AdversaryModel(profile=profile, seed=1),
            defenses=defenses,
            concurrency=concurrency,
            **config_kwargs,
        ),
    )


TRAP_PROFILE = AdversaryProfile(trap_hosts=("seed.co.th",), trap_fanout=3)


def trap_session(defenses=None, max_pages=40, concurrency=None):
    pages = [thai_page(SEED, outlinks=(A,)), thai_page(A)]
    return hostile_session(pages, TRAP_PROFILE, defenses, max_pages, concurrency)


class TestEngineIntegration:
    @pytest.mark.parametrize("concurrency", [None, 1, 3])
    def test_depth_cap_contains_the_trap(self, concurrency):
        undefended = trap_session(concurrency=concurrency).run()
        assert undefended.pages_crawled == 40  # the trap soaks the whole budget

        defended = trap_session(
            defenses=DefenseConfig(max_url_depth=2), concurrency=concurrency
        ).run()
        # Depth 2 admits the trap entries (/cal/x) but none of their
        # children, so the crawl drains instead of soaking the cap.
        assert defended.pages_crawled < 40
        assert defended.adversary["defense_stats"]["depth_skips"] > 0

    def test_streak_budget_contains_the_trap(self):
        defended = trap_session(defenses=DefenseConfig(host_page_budget=4)).run()
        assert defended.pages_crawled < 40
        assert defended.adversary["defense_stats"]["host_budget_skips"] > 0

    def test_defense_stats_surface_in_result(self):
        result = trap_session(defenses=DefenseConfig.standard()).run()
        stats = result.adversary["defense_stats"]
        assert set(stats) >= {"depth_skips", "host_budget_skips", "alias_skips"}
        assert result.adversary["injected"]["trap_pages"] > 0


ALIAS_PROFILE = AdversaryProfile(alias_hosts=("a.co.th",))


def alias_session(defenses=None):
    # SEED and B both link to A, so A is offered under two distinct
    # session aliases (the token churns per referrer).
    pages = [
        thai_page(SEED, outlinks=(A, B)),
        thai_page(A),
        thai_page(B, outlinks=(A,)),
    ]
    return hostile_session(pages, ALIAS_PROFILE, defenses, max_pages=20)


class TestAliasCanonicalization:
    def test_without_defenses_aliases_earn_no_coverage(self):
        result = alias_session().run()
        # Both alias fetches serve A's content under ?sid=… URLs —
        # recall credit for A itself is never earned.
        assert result.summary.covered_relevant == 1
        assert result.adversary["injected"]["alias"] >= 2

    def test_gate_canonicalization_recovers_coverage(self):
        result = alias_session(defenses=DefenseConfig(strip_session_ids=True)).run()
        assert result.summary.covered_relevant == 2

    def test_repeat_aliases_are_skipped_not_fetched(self):
        result = alias_session(defenses=DefenseConfig(strip_session_ids=True)).run()
        # The first alias of A is crawled under its canonical URL; the
        # second (from B, different token) is refused at the gate.
        assert result.adversary["defense_stats"]["alias_skips"] == 1
        assert result.pages_crawled == 3


def redirect_session(defenses=None, loop=True):
    profile = AdversaryProfile(
        redirect_rate=1.0,
        redirect_hops=3,
        redirect_loop_rate=1.0 if loop else 0.0,
    )
    pages = [thai_page(SEED, outlinks=(A,)), thai_page(A)]
    return hostile_session(pages, profile, defenses, max_pages=30)


class TestRedirectDiscipline:
    def test_naive_follow_burns_the_safety_cap_on_loops(self):
        result = redirect_session().run()
        assert result.adversary["redirect_aborts"] > 0
        # Every looping chain costs the full naive cap in hops.
        assert result.adversary["redirect_hops"] >= NAIVE_REDIRECT_CAP

    def test_hop_limit_cuts_losses(self):
        limited = redirect_session(defenses=DefenseConfig(max_redirect_hops=5)).run()
        naive = redirect_session().run()
        assert limited.adversary["redirect_hops"] < naive.adversary["redirect_hops"]
        assert limited.adversary["redirect_aborts"] > 0

    def test_honest_chains_resolve_under_the_limit(self):
        result = redirect_session(
            defenses=DefenseConfig(max_redirect_hops=5), loop=False
        ).run()
        assert result.summary.covered_relevant == 2
        assert result.adversary["redirect_aborts"] == 0


class TestSessionWiring:
    def test_disabled_defenses_build_no_policy(self):
        crawl = trap_session(defenses=DefenseConfig()).open()
        try:
            assert crawl._defenses is None
        finally:
            crawl.close()

    def test_extract_from_body_rejects_live_adversary(self):
        session = hostile_session(
            [thai_page(SEED)],
            AdversaryProfile(trap_host_rate=0.5),
            relevant=(SEED,),
            extract_from_body=True,
        )
        with pytest.raises(ConfigError, match="extract_from_body"):
            session.open()

    def test_bare_session_reports_no_adversary_section(self):
        result = CrawlSession(
            CrawlRequest(
                strategy="breadth-first",
                web=VirtualWebSpace(CrawlLog([thai_page(SEED)])),
                classifier=Classifier(Language.THAI),
                seeds=(SEED,),
                relevant_urls=frozenset({SEED}),
            ),
            SessionConfig(),
        ).run()
        assert result.adversary is None

    def test_armed_session_reports_adversary_section(self):
        result = trap_session(defenses=DefenseConfig.standard()).run()
        assert result.adversary is not None
