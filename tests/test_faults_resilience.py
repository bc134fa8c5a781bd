"""The resilient fetch pipeline: retry, breakers, requeue — and the
no-op guarantee on a healthy web.

Integration tests drive a real :class:`CrawlSession` over the tiny web so
every assertion is about observable crawl behaviour (pages crawled,
series, stats), not internals.
"""

import pytest

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy
from repro.core.timing import TimingModel
from repro.errors import ConfigError
from repro.faults import (
    BreakerPolicy,
    FaultModel,
    FaultProfile,
    HostBreakers,
    HostOutage,
    ResilienceConfig,
    RetryPolicy,
)

from conftest import SEED

THAI_SET = frozenset({SEED})


def simulate(web, relevant_urls=None, **config):
    return CrawlSession(
        CrawlRequest(
            strategy=BreadthFirstStrategy(),
            web=web,
            classifier=Classifier(Language.THAI),
            seeds=(SEED,),
            relevant_urls=relevant_urls,
        ),
        SessionConfig(sample_interval=1, **config),
    )


class TestPolicies:
    def test_backoff_schedule(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_factor=2.0)
        assert [policy.backoff_s(n) for n in (1, 2, 3)] == [1.0, 2.0, 4.0]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_factor": 0.5},
            {"max_requeues": -1},
        ],
    )
    def test_retry_policy_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize("kwargs", [{"error_budget": 0}, {"cooldown_pops": 0}])
    def test_breaker_policy_validation(self, kwargs):
        with pytest.raises(ConfigError):
            BreakerPolicy(**kwargs)


class TestHostBreakers:
    def test_opens_at_budget_and_cools_down(self):
        board = HostBreakers(BreakerPolicy(error_budget=2, cooldown_pops=5))
        assert board.allow("a.com", pop_seq=1)
        board.record_failure("a.com", pop_seq=1)
        assert board.allow("a.com", pop_seq=2)  # one failure left in budget
        board.record_failure("a.com", pop_seq=2)  # budget spent: opens
        assert board.opened == 1
        assert not board.allow("a.com", pop_seq=3)
        assert board.state_of("a.com") == "open"
        # Cooldown elapsed: half-open, the next candidate is the trial.
        assert board.allow("a.com", pop_seq=7)
        assert board.state_of("a.com") == "half-open"

    def test_trial_success_closes(self):
        board = HostBreakers(BreakerPolicy(error_budget=1, cooldown_pops=2))
        board.record_failure("a.com", pop_seq=1)
        assert board.allow("a.com", pop_seq=3)  # half-open trial
        board.record_success("a.com")
        assert board.state_of("a.com") == "closed"
        assert board.closed == 1
        assert board.open_hosts() == 0

    def test_trial_failure_reopens(self):
        board = HostBreakers(BreakerPolicy(error_budget=1, cooldown_pops=2))
        board.record_failure("a.com", pop_seq=1)
        assert board.allow("a.com", pop_seq=3)
        board.record_failure("a.com", pop_seq=3)
        assert board.reopened == 1
        assert not board.allow("a.com", pop_seq=4)

    def test_snapshot_restore_roundtrip(self):
        board = HostBreakers(BreakerPolicy(error_budget=1, cooldown_pops=10))
        board.record_failure("a.com", pop_seq=4)
        restored = HostBreakers(BreakerPolicy(error_budget=1, cooldown_pops=10))
        restored.restore(board.snapshot())
        assert restored.state_of("a.com") == "open"
        assert not restored.allow("a.com", pop_seq=5)
        assert restored.allow("a.com", pop_seq=14)
        assert restored.opened == 1


class TestResilientLoopCleanPath:
    def test_no_faults_is_trace_identical_to_clean_loop(self, tiny_web):
        """ResilienceConfig attached, zero faults ⇒ the exact clean run."""
        clean_urls, resilient_urls = [], []
        clean = simulate(
            tiny_web, on_fetch=lambda event: clean_urls.append(event.url)
        ).run()
        resilient = simulate(
            tiny_web,
            resilience=ResilienceConfig(),
            on_fetch=lambda event: resilient_urls.append(event.url),
        ).run()
        assert clean_urls == resilient_urls
        assert clean.series.to_dict() == resilient.series.to_dict()
        assert resilient.resilience["retries"] == 0
        assert resilient.resilience["fetches_failed"] == 0
        assert clean.resilience is None

    def test_clean_path_with_timing_is_identical(self, tiny_web):
        clean = simulate(tiny_web, timing=TimingModel()).run()
        resilient = simulate(
            tiny_web, timing=TimingModel(), resilience=ResilienceConfig()
        ).run()
        assert clean.summary.simulated_seconds == resilient.summary.simulated_seconds


class TestRetry:
    def test_retries_recover_transients_without_losing_pages(self, tiny_web):
        faults = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=2),
            seed=0,
        )
        result = simulate(
            tiny_web,
            faults=faults,
            resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=3)),
        ).run()
        clean = simulate(tiny_web).run()
        # Every transient recovers within the attempt budget, so the
        # crawl reaches every page the clean run reaches.
        assert result.pages_crawled == clean.pages_crawled
        assert result.resilience["retries"] > 0
        assert result.resilience["dropped"] == 0

    def test_backoff_spends_simulated_time(self, tiny_web):
        faults = FaultModel(
            profile=FaultProfile(transient_error_rate=1.0, transient_recovery_attempts=2),
            seed=0,
        )
        clean = simulate(tiny_web, timing=TimingModel()).run()
        delayed = simulate(
            tiny_web,
            timing=TimingModel(),
            faults=faults,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=3, backoff_base_s=30.0)
            ),
        ).run()
        assert delayed.summary.simulated_seconds > clean.summary.simulated_seconds

    def test_exhausted_attempts_requeue_then_drop(self, tiny_web):
        # seed.co.th is down for the whole run: the seed URL can never be
        # fetched, gets requeued max_requeues times, then dropped — and
        # the crawl terminates with zero pages.
        faults = FaultModel(
            outages=(HostOutage(host="seed.co.th", start=0, end=10**9),), seed=0
        )
        result = simulate(
            tiny_web,
            faults=faults,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, max_requeues=3), breaker=None
            ),
        ).run()
        assert result.pages_crawled == 0
        assert result.resilience["requeued"] == 3
        assert result.resilience["dropped"] == 1
        assert result.resilience["faults_injected"]["outage"] == 8  # 4 rounds × 2

    def test_failed_rounds_are_not_crawl_steps(self, tiny_web):
        """A failed fetch round must not dilute harvest rate."""
        faults = FaultModel(
            outages=(HostOutage(host="dead.com", start=0, end=10**9),), seed=0
        )
        clean = simulate(tiny_web).run()
        result = simulate(tiny_web, faults=faults, relevant_urls=THAI_SET).run()
        # The dead.com page is lost; every other page is still crawled
        # and the harvest denominator shrinks by exactly that page.
        assert result.pages_crawled == clean.pages_crawled - 1
        assert result.resilience["dropped"] == 1


class TestBreaker:
    def test_breaker_opens_and_skips(self, tiny_web):
        faults = FaultModel(
            outages=(HostOutage(host="seed.co.th", start=0, end=10**9),), seed=0
        )
        result = simulate(
            tiny_web,
            faults=faults,
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=1, max_requeues=5),
                breaker=BreakerPolicy(error_budget=1, cooldown_pops=100),
            ),
        ).run()
        assert result.resilience["breaker_opened"] == 1
        # After the breaker opened, further pops of the seed candidate
        # were skipped without burning fetch attempts.
        assert result.resilience["breaker_skips"] > 0
        assert result.resilience["fetches_failed"] == 1


class TestDeterminism:
    def _run(self, tiny_web, seed):
        faults = FaultModel(
            profile=FaultProfile(
                transient_error_rate=0.5, timeout_rate=0.3, truncation_rate=0.3
            ),
            seed=seed,
        )
        simulator = simulate(tiny_web, faults=faults, record_fault_journal=True)
        result = simulator.run()
        return simulator.faulty_web.journal, result.series.to_dict()

    def test_same_seed_identical_journal_and_series(self, tiny_web):
        assert self._run(tiny_web, 42) == self._run(tiny_web, 42)

    def test_different_seed_different_journal(self, tiny_web):
        journal_a, _ = self._run(tiny_web, 1)
        journal_b, _ = self._run(tiny_web, 2)
        assert journal_a != journal_b
