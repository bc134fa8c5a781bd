"""Property-based tests for virtual-time scheduling invariants.

The event-driven engine's determinism rests on three load-bearing
mechanisms, each pinned here over randomised inputs:

- :meth:`repro.core.timing.VirtualClock.reserve_fetch` — politeness is a
  hard per-site floor, starts respect the issue-time clock, and the
  ``latency_scale == 1.0`` fast path is bit-identical to the general
  expression (healthy hosts must not pay float drift for the slow-host
  hook's existence).
- The event heap — pop order is a pure function of ``(completion,
  seq)``: insertion order never shows through, and the payload is never
  compared.
- The engine itself — the K=1 zero-latency run equals the round-based
  engine on *arbitrary* random webs (the golden suite pins one curated
  web; this generalises it), and a run's trace is independent of the
  ``step(budget)`` cadence it was driven with.
"""

from __future__ import annotations

import heapq

from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import SimpleStrategy
from repro.core.timing import TimingModel
from repro.webspace.crawllog import CrawlLog
from repro.webspace.page import PageRecord
from repro.webspace.stats import relevant_url_set
from repro.webspace.virtualweb import VirtualWebSpace

N_PAGES = 12
N_SITES = 3


# -- reserve_fetch ----------------------------------------------------------

@st.composite
def reservation_sequences(draw):
    """A reservation workload: model knobs plus an issue-ordered list of
    ``(site_index, size, not_before)`` with a non-decreasing clock (the
    engine only ever issues at its current virtual time)."""
    politeness = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
    latency = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    count = draw(st.integers(min_value=1, max_value=20))
    clock = 0.0
    requests = []
    for _ in range(count):
        clock += draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
        requests.append(
            (
                draw(st.integers(min_value=0, max_value=N_SITES - 1)),
                draw(st.integers(min_value=0, max_value=100_000)),
                clock,
            )
        )
    return politeness, latency, requests


def _site_url(index: int) -> str:
    return f"http://site{index}.example/page"


class TestReserveFetch:
    @given(reservation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_per_site_gap_is_at_least_politeness(self, workload):
        politeness, latency, requests = workload
        model = TimingModel(latency_s=latency, politeness_interval_s=politeness).clock()
        last_start: dict[int, float] = {}
        for site, size, not_before in requests:
            start, completion = model.reserve_fetch(_site_url(site), size, not_before)
            assert start >= not_before
            assert completion >= start + latency
            if site in last_start:
                # Exact, not approximate: availability is stored as
                # start + politeness and the next start is a max over it.
                assert start >= last_start[site] + politeness
            last_start[site] = start

    @given(reservation_sequences())
    @settings(max_examples=40, deadline=None)
    def test_now_tracks_max_completion(self, workload):
        politeness, latency, requests = workload
        model = TimingModel(latency_s=latency, politeness_interval_s=politeness).clock()
        seen = 0.0
        for site, size, not_before in requests:
            _, completion = model.reserve_fetch(_site_url(site), size, not_before)
            seen = max(seen, completion)
            assert model.now == seen

    @given(
        reservation_sequences(),
        st.floats(min_value=0.1, max_value=4.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_unit_latency_scale_is_bit_identical_to_general_path(
        self, workload, odd_scale
    ):
        """``latency_scale=1.0`` takes a fast path that skips the
        multiply; it must produce the exact floats of the general
        expression, and a non-unit scale must follow that expression."""
        politeness, latency, requests = workload
        model = TimingModel(latency_s=latency, politeness_interval_s=politeness).clock()
        available: dict[str, float] = {}
        for index, (site, size, not_before) in enumerate(requests):
            scale = 1.0 if index % 2 == 0 else odd_scale
            url = _site_url(site)
            start, completion = model.reserve_fetch(
                url, size, not_before, latency_scale=scale
            )
            expected_start = max(not_before, available.get(url, 0.0))
            assert start == expected_start
            assert completion == expected_start + latency * scale + size / model.bandwidth
            available[url] = expected_start + politeness


# -- the event heap ---------------------------------------------------------

class _Opaque:
    """Event payload that refuses ordering: proves the unique ``seq``
    field always breaks ties before the payload is reached."""

    def __lt__(self, other):  # pragma: no cover - failing is the assert
        raise AssertionError("event payload was compared; seq must break ties")

    __gt__ = __le__ = __ge__ = __lt__


@st.composite
def event_batches(draw):
    """Events with deliberately colliding completion times, plus a
    shuffled insertion order."""
    count = draw(st.integers(min_value=1, max_value=12))
    # Few distinct completion values → frequent ties on the first key.
    completions = draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 1.5, 2.0]), min_size=count, max_size=count
        )
    )
    events = [
        (completion, seq, _Opaque()) for seq, completion in enumerate(completions)
    ]
    order = draw(st.permutations(range(count)))
    return events, order


class TestEventHeapOrder:
    @given(event_batches())
    @settings(max_examples=40, deadline=None)
    def test_pop_order_ignores_insertion_order(self, batch):
        events, order = batch
        heap: list = []
        for index in order:
            heapq.heappush(heap, events[index])
        popped = [heapq.heappop(heap) for _ in range(len(events))]
        assert [(e[0], e[1]) for e in popped] == sorted(
            (e[0], e[1]) for e in events
        )


# -- the engine -------------------------------------------------------------

@st.composite
def random_webs(draw):
    """A random 12-page web with random links, languages and statuses."""
    urls = [f"http://h{index}.example/" for index in range(N_PAGES)]
    records = []
    for index, url in enumerate(urls):
        is_ok = draw(st.booleans())
        is_thai = draw(st.booleans())
        targets = draw(
            st.lists(
                st.integers(min_value=0, max_value=N_PAGES - 1), max_size=5, unique=True
            )
        )
        records.append(
            PageRecord(
                url=url,
                status=200 if is_ok else 404,
                charset="TIS-620" if is_thai else "ISO-8859-1",
                true_language=Language.THAI if is_thai else Language.OTHER,
                outlinks=tuple(urls[t] for t in targets if t != index) if is_ok else (),
                size=100,
            )
        )
    return CrawlLog(records)


def _run(log: CrawlLog, concurrency=None, timing=None, budgets=None):
    """One soft-focused crawl; returns its fetch-order URL trace.

    ``budgets`` drives the run through ``step()`` in the given
    installments (cycled) instead of one shot.
    """
    urls: list[str] = []
    session = CrawlSession(
        CrawlRequest(
            strategy=SimpleStrategy(mode="soft"),
            web=VirtualWebSpace(log),
            classifier=Classifier(Language.THAI),
            seeds=(next(iter(log.urls())),),
            relevant_urls=relevant_url_set(log, Language.THAI),
        ),
        SessionConfig(
            sample_interval=1,
            timing=timing,
            concurrency=concurrency,
            on_fetch=lambda event: urls.append(event.url),
        ),
    ).open()
    try:
        if budgets is None:
            while not session.done:
                session.step()
        else:
            index = 0
            while not session.done:
                session.step(budgets[index % len(budgets)])
                index += 1
    finally:
        session.close()
    return urls


def zero_latency() -> TimingModel:
    return TimingModel(
        bandwidth_bytes_per_s=float("inf"), latency_s=0.0, politeness_interval_s=0.0
    )


class TestEngineEquivalence:
    @given(random_webs())
    @settings(max_examples=25, deadline=None)
    def test_k1_zero_latency_equals_round_based(self, log):
        round_based = _run(log)
        event_driven = _run(log, concurrency=1, timing=zero_latency())
        assert event_driven == round_based

    @given(
        random_webs(),
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_trace_is_independent_of_step_cadence(self, log, concurrency, budgets):
        one_shot = _run(log, concurrency=concurrency, timing=TimingModel())
        stepped = _run(
            log, concurrency=concurrency, timing=TimingModel(), budgets=budgets
        )
        assert stepped == one_shot
