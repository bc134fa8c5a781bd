"""Property-based tests for the adversary layer's invariants.

Four properties carry the whole design, each pinned over randomised
profiles, seeds and fetch orders:

- **Same-seed determinism** — two independently built wrappers over the
  same web, profile and seed produce identical responses and journals
  for any fetch sequence (the survival sweep's reproducibility rests on
  this).
- **Empty-profile transparency** — a wrapper with no armed knob is
  byte-identical to the bare :class:`VirtualWebSpace` on arbitrary webs
  and fetch orders (the clean-path golden differential, generalised).
- **Trap-subtree uniqueness** — walking any branch of a trap subtree
  never revisits a URL, so a trapped crawl is defeated by *volume*, not
  by the frontier's seen-set.
- **Chain termination** — non-looping redirect chains always deliver
  content within ``redirect_hops + 1`` fetches.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.adversary import AdversarialWebSpace, AdversaryModel, AdversaryProfile
from repro.adversary.web import TRAP_PREFIX
from repro.charset.languages import Language
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.virtualweb import VirtualWebSpace

N_PAGES = 10


@st.composite
def random_logs(draw):
    """A random small web: mixed languages, statuses and links."""
    urls = [f"http://h{index}.co.th/p/{index}.html" for index in range(N_PAGES)]
    records = []
    for index, url in enumerate(urls):
        is_ok = draw(st.booleans())
        is_thai = draw(st.booleans())
        targets = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_PAGES - 1), max_size=4, unique=True
            )
        )
        records.append(
            PageRecord(
                url=url,
                status=200 if is_ok else 404,
                charset="TIS-620" if is_thai else "ISO-8859-1",
                true_language=Language.THAI if is_thai else Language.OTHER,
                outlinks=tuple(urls[t] for t in targets if t != index) if is_ok else (),
                size=100 + index,
            )
        )
    return CrawlLog(records)


@st.composite
def random_profiles(draw):
    """An adversary profile with every rate drawn independently."""
    rate = st.sampled_from([0.0, 0.2, 0.5, 1.0])
    return AdversaryProfile(
        trap_host_rate=draw(rate),
        trap_fanout=draw(st.integers(min_value=1, max_value=4)),
        redirect_rate=draw(rate),
        redirect_hops=draw(st.integers(min_value=1, max_value=4)),
        redirect_loop_rate=draw(rate),
        soft404_rate=draw(rate),
        soft404_fanout=draw(st.integers(min_value=0, max_value=3)),
        alias_host_rate=draw(rate),
        mislabel_rate=draw(rate),
    )


@st.composite
def fetch_orders(draw):
    """A fetch sequence over the web's URL space, repeats allowed."""
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=N_PAGES - 1), min_size=1, max_size=25
        )
    )
    return [f"http://h{index}.co.th/p/{index}.html" for index in indices]


def _trace(web, urls):
    """Fetch ``urls`` breadth-first-ish: organic order plus every link
    the adversary mints, so synthetic URLs (traps, hops, aliases) are
    exercised too."""
    responses = []
    queue = list(urls)
    budget = 120
    while queue and budget:
        budget -= 1
        url = queue.pop(0)
        response = web.fetch(url)
        responses.append(response)
        if response.redirect_to is not None:
            queue.append(response.redirect_to)
        queue.extend(response.outlinks[:2])
    return responses


class TestSameSeedDeterminism:
    @given(random_logs(), random_profiles(), fetch_orders(), st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_identical_responses_and_journals(self, log, profile, urls, seed):
        first = AdversarialWebSpace(
            VirtualWebSpace(log), AdversaryModel(profile=profile, seed=seed),
            record_journal=True,
        )
        second = AdversarialWebSpace(
            VirtualWebSpace(log), AdversaryModel(profile=profile, seed=seed),
            record_journal=True,
        )
        assert _trace(first, urls) == _trace(second, urls)
        assert first.journal == second.journal
        assert dict(first.injected) == dict(second.injected)


class TestEmptyProfileTransparency:
    @given(random_logs(), fetch_orders())
    @settings(max_examples=40, deadline=None)
    def test_wrapper_is_invisible(self, log, urls):
        bare = VirtualWebSpace(log)
        wrapped = AdversarialWebSpace(VirtualWebSpace(log), AdversaryModel())
        for url in urls:
            assert wrapped.fetch(url) == bare.fetch(url)
        assert wrapped.fetch_count == bare.fetch_count
        assert all(count == 0 for count in wrapped.injected.values())


class TestTrapSubtreeUniqueness:
    @given(
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=5, max_value=15),
    )
    @settings(max_examples=40, deadline=None)
    def test_walk_never_revisits_a_url(self, seed, fanout, depth):
        log = CrawlLog(
            [
                PageRecord(
                    url="http://trap.co.th/",
                    status=200,
                    charset="TIS-620",
                    true_language=Language.THAI,
                    outlinks=(),
                    size=100,
                )
            ]
        )
        web = AdversarialWebSpace(
            VirtualWebSpace(log),
            AdversaryModel(
                profile=AdversaryProfile(trap_hosts=("trap.co.th",), trap_fanout=fanout),
                seed=seed,
            ),
        )
        seen: set[str] = set()
        frontier = [
            link for link in web.fetch("http://trap.co.th/").outlinks
            if TRAP_PREFIX in link
        ]
        for _ in range(depth):
            assert frontier, "trap subtree must never bottom out"
            url = frontier.pop()  # depth-first down one random-ish branch
            assert url not in seen
            seen.add(url)
            response = web.fetch(url)
            assert response.ok
            frontier = list(response.outlinks)


class TestChainTermination:
    @given(
        random_logs(),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=40, deadline=None)
    def test_honest_chains_deliver_within_hop_budget(self, log, seed, hops):
        web = AdversarialWebSpace(
            VirtualWebSpace(log),
            AdversaryModel(
                profile=AdversaryProfile(redirect_rate=1.0, redirect_hops=hops),
                seed=seed,
            ),
        )
        for url in log.urls():
            response = web.fetch(url)
            followed = 0
            while response.redirect_to is not None:
                followed += 1
                assert followed <= hops, f"chain for {url} exceeded {hops} hops"
                response = web.fetch(response.redirect_to)
            assert response.url == url
