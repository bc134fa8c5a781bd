"""The resilient fetch pipeline's policy objects and breaker state.

Three layers of recovery, all driven by the session's resilient crawl
loop (a :class:`repro.core.session.CrawlSession` with faults,
checkpointing or an explicit :class:`ResilienceConfig` attached):

1. **Retry with exponential backoff** — a retryable fault (transient
   5xx, timeout, outage) is refetched up to ``max_attempts`` times
   within the same crawl step; each retry pushes the host's politeness
   window forward on the *simulated* clock (never wall time).
2. **Per-host circuit breaker** — ``error_budget`` consecutive
   failed fetch rounds open the breaker for ``cooldown_pops`` pops;
   while open, candidates of that host are requeued (or dropped once
   their requeue budget is spent) without burning fetch attempts.  The
   first candidate after cooldown is the half-open trial: success
   closes the breaker, failure re-opens it.
3. **Capped requeue** — a URL whose fetch round failed goes back into
   the frontier at its original priority, at most ``max_requeues``
   times, after which it is dropped and counted.

Everything here is measured in simulated quantities (attempt counts,
pop sequence numbers, simulated seconds), so the whole pipeline is
deterministic and serialisable for checkpoint/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError
from repro.schema import ConfigValue

_CLOSED = "closed"
_OPEN = "open"
_HALF_OPEN = "half-open"


@dataclass(frozen=True, slots=True)
class RetryPolicy(ConfigValue):
    """Retry/backoff/requeue knobs of the resilient fetch pipeline.

    Attributes:
        max_attempts: fetch attempts per crawl step (1 = no retries).
        backoff_base_s: simulated seconds of backoff before the first
            retry.
        backoff_factor: multiplier applied per further retry.
        max_requeues: times a failed URL re-enters the frontier before
            being dropped.
    """

    max_attempts: int = 3
    backoff_base_s: float = 1.0
    backoff_factor: float = 2.0
    max_requeues: int = 2

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("RetryPolicy.max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ConfigError("backoff_base_s must be >= 0 and backoff_factor >= 1")
        if self.max_requeues < 0:
            raise ConfigError("RetryPolicy.max_requeues must be >= 0")

    def backoff_s(self, retry_number: int) -> float:
        """Simulated backoff before retry ``retry_number`` (1-based)."""
        return self.backoff_base_s * self.backoff_factor ** (retry_number - 1)


@dataclass(frozen=True, slots=True)
class BreakerPolicy(ConfigValue):
    """Error budget and cooldown of the per-host circuit breaker.

    Attributes:
        error_budget: consecutive failed fetch rounds a host may spend
            before its breaker opens.
        cooldown_pops: frontier pops the breaker stays open for; the
            unit is the global pop sequence, which is deterministic and
            checkpoint-safe (unlike wall time).
    """

    error_budget: int = 5
    cooldown_pops: int = 100

    def __post_init__(self) -> None:
        if self.error_budget < 1:
            raise ConfigError("BreakerPolicy.error_budget must be >= 1")
        if self.cooldown_pops < 1:
            raise ConfigError("BreakerPolicy.cooldown_pops must be >= 1")


@dataclass(frozen=True, slots=True)
class ResilienceConfig(ConfigValue):
    """Everything the resilient crawl loop needs, in one object.

    ``breaker=None`` disables circuit breaking (retry and requeue still
    apply).  The default configuration is what a crawl with faults but
    no explicit tuning gets.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy | None = field(default_factory=BreakerPolicy)


@dataclass(slots=True)
class _HostState:
    """Mutable breaker bookkeeping of one host."""

    state: str = _CLOSED
    consecutive_failures: int = 0
    open_until_pop: int = 0


class HostBreakers:
    """Circuit breakers for every host the crawl touches.

    The board is lazy — a host gets state the first time it fails — and
    fully serialisable: :meth:`snapshot`/:meth:`restore` round-trip the
    exact breaker machine, so a resumed crawl skips and admits the same
    candidates the uninterrupted one would.
    """

    def __init__(self, policy: BreakerPolicy) -> None:
        self.policy = policy
        self._hosts: dict[str, _HostState] = {}
        self.opened = 0
        self.reopened = 0
        self.closed = 0

    def allow(self, host: str, pop_seq: int) -> bool:
        """May a candidate of ``host`` be fetched at ``pop_seq``?

        An open breaker whose cooldown has elapsed flips to half-open
        and admits exactly this candidate as the trial fetch.
        """
        state = self._hosts.get(host)
        if state is None or state.state == _CLOSED:
            return True
        if state.state == _OPEN and pop_seq >= state.open_until_pop:
            state.state = _HALF_OPEN
            return True
        return state.state == _HALF_OPEN

    def record_success(self, host: str) -> None:
        state = self._hosts.get(host)
        if state is None:
            return
        if state.state != _CLOSED:
            self.closed += 1
        state.state = _CLOSED
        state.consecutive_failures = 0

    def record_failure(self, host: str, pop_seq: int) -> bool:
        """Account one failed fetch round; True if the breaker opened."""
        state = self._hosts.get(host)
        if state is None:
            state = self._hosts[host] = _HostState()
        state.consecutive_failures += 1
        if state.state == _HALF_OPEN:
            # The trial fetch failed: straight back to open.
            state.state = _OPEN
            state.open_until_pop = pop_seq + self.policy.cooldown_pops
            self.reopened += 1
            return True
        if state.state == _CLOSED and state.consecutive_failures >= self.policy.error_budget:
            state.state = _OPEN
            state.open_until_pop = pop_seq + self.policy.cooldown_pops
            self.opened += 1
            return True
        return False

    def open_hosts(self) -> int:
        return sum(1 for state in self._hosts.values() if state.state != _CLOSED)

    def state_of(self, host: str) -> str:
        state = self._hosts.get(host)
        return state.state if state is not None else _CLOSED

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "opened": self.opened,
            "reopened": self.reopened,
            "closed": self.closed,
            "hosts": {
                host: {
                    "state": state.state,
                    "failures": state.consecutive_failures,
                    "open_until_pop": state.open_until_pop,
                }
                for host, state in self._hosts.items()
            },
        }

    def restore(self, data: Mapping) -> None:
        self.opened = data.get("opened", 0)
        self.reopened = data.get("reopened", 0)
        self.closed = data.get("closed", 0)
        self._hosts = {
            host: _HostState(
                state=entry["state"],
                consecutive_failures=entry["failures"],
                open_until_pop=entry["open_until_pop"],
            )
            for host, entry in data.get("hosts", {}).items()
        }


@dataclass(slots=True)
class ResilienceStats:
    """End-of-run tallies of the resilient fetch pipeline.

    Attached to :class:`~repro.core.session.CrawlResult` when the
    resilient loop ran; the same numbers flow through ``repro.obs`` as
    counters during the run.
    """

    retries: int = 0
    requeued: int = 0
    dropped: int = 0
    fetches_failed: int = 0
    breaker_skips: int = 0
    breaker_opened: int = 0
    checkpoints_written: int = 0
    faults_injected: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "retries": self.retries,
            "requeued": self.requeued,
            "dropped": self.dropped,
            "fetches_failed": self.fetches_failed,
            "breaker_skips": self.breaker_skips,
            "breaker_opened": self.breaker_opened,
            "checkpoints_written": self.checkpoints_written,
            "faults_injected": dict(self.faults_injected),
        }
