"""Deterministic fault injection over the virtual web space.

The paper's simulator assumes every fetch succeeds, but the workload it
models — national-scale archiving crawls running for weeks — spends a
meaningful fraction of its requests on hosts that throw transient 5xx
errors, time out, truncate responses mid-body, or disappear entirely.
This module injects those failure modes as a *wrapping layer* over
:class:`~repro.webspace.virtualweb.VirtualWebSpace`, so every engine and
experiment sees faults through the same unmodified ``fetch`` interface.

Determinism is the design constraint: the same seed and the same fault
profile must produce the *identical* fault sequence on every run and
survive checkpoint/resume.  All randomness is therefore derived from
keyed hashes of stable tokens (URL, host, attempt number) — there is no
mutable RNG stream to serialise; the only injection state is the
per-URL attempt counter and the global fetch index, both plain dicts
that the checkpoint layer snapshots.

Fault kinds (checked in precedence order):

``outage``
    The URL's host is inside a scheduled :class:`HostOutage` window
    (measured in global fetch index) — the whole host answers 521.
``timeout``
    This *attempt* hangs and is abandoned (status 408).  Timeout draws
    are per-(URL, attempt), so a retry of a timed-out fetch may succeed.
``transient``
    The URL is transiently broken (status 503) and recovers after
    ``transient_recovery_attempts`` failed attempts — the classic
    "retry-after" server error.
``truncate``
    The fetch "succeeds" but the body comes back truncated and garbled
    badly enough to defeat charset detection; the response is marked
    ``truncated`` so the classifier can degrade gracefully.

Slow hosts are not a fault decision but a timing property: a seeded
fraction of hosts answer with a latency multiplier, surfaced through
:meth:`FaultModel.latency_scale` and consumed by the run's
:class:`~repro.core.timing.VirtualClock`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from hashlib import blake2b

from repro.errors import ConfigError
from repro.schema import ConfigValue
from repro.urlkit.normalize import url_site_key
from repro.webspace.page import (
    STATUS_HOST_DOWN,
    STATUS_SERVER_ERROR,
    STATUS_TIMEOUT,
)
from repro.webspace.virtualweb import FetchResponse, VirtualWebSpace

#: Fault kinds a resilient fetch pipeline should retry; truncation is a
#: degraded *success* and is never retried.
RETRYABLE_FAULTS = frozenset({"transient", "timeout", "outage"})

_FAULT_STATUS = {
    "transient": STATUS_SERVER_ERROR,
    "timeout": STATUS_TIMEOUT,
    "outage": STATUS_HOST_DOWN,
}

#: Bytes appended to a truncated body: an invalid UTF-8/ISO-2022 mix that
#: no charset state machine accepts, so detection degrades to UNKNOWN.
_GARBLE = b"\xfe\xff\x00\x1b$\xfe\x80\x80"


def _bare_host(site: str) -> str:
    """Strip the port from a site key: hosts in fault profiles and
    outage schedules are written without ports (``seed.co.th``), while
    :func:`~repro.urlkit.normalize.url_site_key` yields
    ``seed.co.th:80``."""
    return site.rsplit(":", 1)[0] if ":" in site else site


@dataclass(frozen=True, slots=True)
class FaultProfile(ConfigValue):
    """Failure rates of one host (or the global default).

    Rates are probabilities in [0, 1]; each draw is an independent keyed
    hash, so e.g. a URL can be both transiently broken and truncated
    (the transient error wins until it recovers).

    Attributes:
        transient_error_rate: fraction of URLs that 503 until they
            recover.
        transient_recovery_attempts: failed attempts before a transient
            URL starts succeeding.
        timeout_rate: per-attempt probability of a hard timeout.
        truncation_rate: fraction of URLs whose body arrives truncated
            and garbled.
        slow_host_rate: fraction of hosts whose latency is multiplied.
        slow_host_multiplier: the latency multiplier of a slow host.
        latency_jitter: per-fetch latency variation amplitude j — each
            fetch's latency scale is multiplied by a seeded draw in
            [1-j, 1+j).  Zero (the default) is bit-identical to no
            jitter: no draw is made and no float op touches the scale.
        bandwidth_jitter: same, for the fetch's effective bandwidth.
    """

    transient_error_rate: float = 0.0
    transient_recovery_attempts: int = 2
    timeout_rate: float = 0.0
    truncation_rate: float = 0.0
    slow_host_rate: float = 0.0
    slow_host_multiplier: float = 10.0
    latency_jitter: float = 0.0
    bandwidth_jitter: float = 0.0

    def __post_init__(self) -> None:
        for name in ("transient_error_rate", "timeout_rate", "truncation_rate", "slow_host_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"FaultProfile.{name} must be in [0, 1], got {value!r}")
        for name in ("latency_jitter", "bandwidth_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"FaultProfile.{name} must be in [0, 1), got {value!r}")
        if self.transient_recovery_attempts < 1:
            raise ConfigError("transient_recovery_attempts must be >= 1")
        if self.slow_host_multiplier < 1.0:
            raise ConfigError("slow_host_multiplier must be >= 1")


@dataclass(frozen=True, slots=True)
class HostOutage(ConfigValue):
    """A scheduled whole-host outage over a global fetch-index window.

    The window is half-open: the host is down for fetch indices
    ``start <= index < end``.  Fetch indices count every simulated fetch
    *attempt* in the run, which makes outages deterministic regardless
    of wall time.
    """

    host: str
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"outage window must satisfy 0 <= start < end, got [{self.start}, {self.end})"
            )

    def covers(self, index: int) -> bool:
        return self.start <= index < self.end


@dataclass(frozen=True)
class FaultModel(ConfigValue):
    """Seeded, stateless-by-construction fault decisions.

    Every decision is a pure function of ``(seed, url/host, attempt,
    fetch_index)``: two models with the same seed and profiles agree on
    every fault they would ever inject, in any order of queries.  The
    model is a value — equal and hashable by its inputs, never mutated
    by a run; the injection tallies live on the run's
    :class:`FaultyWebSpace`.

    Args:
        profile: the global default :class:`FaultProfile`.
        per_host: overrides keyed by host, as a mapping or as
            ``(host, profile)`` pairs; stored as sorted pairs of bare
            hosts (port-insensitive: profiles say ``seed.co.th``, site
            keys say ``seed.co.th:80``).
        outages: scheduled :class:`HostOutage` windows.
        seed: hash key; same seed ⇒ identical fault sequence.

    Its JSON (a ``--faults`` file, the wire's ``faults`` object) is
    ``{"seed", "global", "hosts", "outages"}``.
    """

    profile: FaultProfile = field(default_factory=FaultProfile, metadata={"json": "global"})
    per_host: tuple[tuple[str, FaultProfile], ...] = field(default=(), metadata={"json": "hosts"})
    outages: tuple[HostOutage, ...] = ()
    #: Seed of every fault decision.
    seed: int = field(default=0, metadata={"flag": "fault-seed", "override_only": True})
    _key: bytes = field(init=False, repr=False, compare=False)
    _profiles: dict[str, FaultProfile] = field(init=False, repr=False, compare=False)
    _outages_by_host: dict[str, list[HostOutage]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        pairs = self.per_host.items() if isinstance(self.per_host, Mapping) else self.per_host
        profiles = {_bare_host(host): prof for host, prof in pairs}
        setattr_(self, "per_host", tuple(sorted(profiles.items())))
        setattr_(self, "outages", tuple(self.outages))
        setattr_(self, "_profiles", profiles)
        key = blake2b(f"lswc-faults:{self.seed}".encode(), digest_size=16).digest()
        setattr_(self, "_key", key)
        by_host: dict[str, list[HostOutage]] = {}
        for outage in self.outages:
            by_host.setdefault(_bare_host(outage.host), []).append(outage)
        setattr_(self, "_outages_by_host", by_host)

    # -- derived randomness --------------------------------------------------

    def _unit(self, kind: str, token: str) -> float:
        """A deterministic uniform draw in [0, 1) for (seed, kind, token)."""
        digest = blake2b(
            f"{kind}:{token}".encode(), digest_size=8, key=self._key
        ).digest()
        return int.from_bytes(digest, "big") / 2**64

    def profile_for(self, host: str) -> FaultProfile:
        return self._profiles.get(_bare_host(host), self.profile)

    # -- decisions -----------------------------------------------------------

    def decide(self, url: str, host: str, attempt: int, fetch_index: int) -> str | None:
        """The fault (if any) injected into this fetch attempt.

        Args:
            url: the URL being fetched.
            host: its site key (caller computes it once).
            attempt: zero-based count of *previous* fetches of this URL.
            fetch_index: one-based global count of fetch attempts.

        Returns:
            One of ``"outage"``/``"timeout"``/``"transient"``/
            ``"truncate"``, or None for a clean fetch.
        """
        for outage in self._outages_by_host.get(_bare_host(host), ()):
            if outage.covers(fetch_index):
                return "outage"
        prof = self.profile_for(host)
        if prof.timeout_rate and self._unit("timeout", f"{url}#{attempt}") < prof.timeout_rate:
            return "timeout"
        if (
            prof.transient_error_rate
            and attempt < prof.transient_recovery_attempts
            and self._unit("transient", url) < prof.transient_error_rate
        ):
            return "transient"
        if prof.truncation_rate and self._unit("truncate", url) < prof.truncation_rate:
            return "truncate"
        return None

    def latency_scale(self, host: str) -> float:
        """Latency multiplier of ``host`` (1.0 for healthy hosts)."""
        bare = _bare_host(host)
        prof = self.profile_for(bare)
        if prof.slow_host_rate and self._unit("slow", bare) < prof.slow_host_rate:
            return prof.slow_host_multiplier
        return 1.0

    def fetch_scales(self, host: str, url: str) -> tuple[float, float]:
        """Per-fetch ``(latency_scale, bandwidth_scale)`` multipliers.

        The latency scale combines the host's slow-host multiplier with
        a per-URL jitter draw in [1-j, 1+j); the bandwidth scale is pure
        jitter.  With both jitter amplitudes at 0 the result is exactly
        ``(latency_scale(host), 1.0)`` — no draw, no float op — which is
        the bit-identity contract the timing tests pin.
        """
        latency = self.latency_scale(host)
        prof = self.profile_for(host)
        bandwidth = 1.0
        if prof.latency_jitter:
            latency *= 1.0 + prof.latency_jitter * (2.0 * self._unit("latjitter", url) - 1.0)
        if prof.bandwidth_jitter:
            bandwidth = 1.0 + prof.bandwidth_jitter * (2.0 * self._unit("bwjitter", url) - 1.0)
        return latency, bandwidth

    @staticmethod
    def garble(body: bytes) -> bytes:
        """A deterministically truncated, detection-defeating body."""
        return body[: max(8, len(body) // 2)] + _GARBLE


class FaultyWebSpace:
    """A :class:`VirtualWebSpace` with a :class:`FaultModel` in front.

    Drop-in for the places the engine cares about (``fetch``,
    ``crawl_log``, ``fetch_count``): the visitor fetches through this
    wrapper and receives either the clean response, a degraded
    (truncated) response, or a synthetic failure response whose
    ``fault`` field names the injected kind.

    Injection state is two counters — the global fetch index (drives
    outage windows) and per-URL attempt counts (drives transient
    recovery) — exposed via :meth:`snapshot`/:meth:`restore` so a
    resumed crawl replays the exact fault sequence the interrupted one
    would have seen.  The per-kind ``injected`` tallies ride along: they
    are this run's observability, never an input to a decision.

    ``journal`` (opt-in) records every injected fault as
    ``(fetch_index, url, kind)`` tuples — the sequence the determinism
    tests compare across runs.
    """

    def __init__(
        self,
        web: VirtualWebSpace,
        model: FaultModel,
        record_journal: bool = False,
    ) -> None:
        self._web = web
        self.model = model
        self.fetch_index = 0
        self._attempts: dict[str, int] = {}
        self.injected: dict[str, int] = {
            "transient": 0,
            "timeout": 0,
            "outage": 0,
            "truncate": 0,
        }
        self.journal: list[tuple[int, str, str]] | None = [] if record_journal else None

    @property
    def web(self) -> VirtualWebSpace:
        return self._web

    @property
    def crawl_log(self):
        return self._web.crawl_log

    @property
    def fetch_count(self) -> int:
        return self._web.fetch_count

    def __contains__(self, url: str) -> bool:
        return url in self._web

    def attempts_of(self, url: str) -> int:
        """The *live* attempt counter of ``url``.

        Zero both for never-fetched URLs and for URLs whose counter was
        pruned after a completed fetch (see :meth:`fetch`) — the two are
        indistinguishable on purpose: a pruned counter is one the fault
        model can never read again.
        """
        return self._attempts.get(url, 0)

    def fetch(self, url: str, uid: int | None = None) -> FetchResponse:
        """Fetch with fault injection; never raises for injected faults.

        ``uid`` (a url-id hint) is passed through to the wrapped web."""
        self.fetch_index += 1
        attempt = self._attempts.get(url, 0)
        self._attempts[url] = attempt + 1
        host = url_site_key(url)
        kind = self.model.decide(url, host, attempt, self.fetch_index)
        if kind is None or kind == "truncate":
            # The fetch completed (possibly degraded) — the engine's
            # dedup never pops a completed URL again, so its attempt
            # counter can only matter if it is still below the transient
            # recovery threshold of a host that injects attempt-sensitive
            # faults.  Prune everything else: without this the dict gains
            # one entry per URL ever fetched and a long crawl's memory
            # grows without bound.  Counters of URLs mid-failure are
            # never pruned (their next attempt number must survive a
            # checkpoint/resume bit-exactly).
            prof = self.model.profile_for(host)
            if attempt + 1 >= prof.transient_recovery_attempts or not (
                prof.transient_error_rate or prof.timeout_rate
            ):
                del self._attempts[url]
        if kind is None:
            return self._web.fetch(url, uid)
        self.injected[kind] += 1
        if self.journal is not None:
            self.journal.append((self.fetch_index, url, kind))
        if kind == "truncate":
            response = self._web.fetch(url, uid)
            if response.body is None and not response.ok:
                return response  # nothing to truncate on a failed page
            body = self.model.garble(response.body) if response.body is not None else None
            return response._replace(body=body, truncated=True, fault="truncate")
        return FetchResponse(
            url=url,
            status=_FAULT_STATUS[kind],
            content_type="text/html",
            charset=None,
            outlinks=(),
            size=0,
            fault=kind,
        )

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        """Injection state: enough to replay the exact fault sequence."""
        return {
            "seed": self.model.seed,
            "fetch_index": self.fetch_index,
            "attempts": dict(self._attempts),
            "injected": dict(self.injected),
        }

    def restore(self, state: Mapping) -> None:
        if state.get("seed") != self.model.seed:
            raise ConfigError(
                f"checkpoint fault seed {state.get('seed')!r} does not match "
                f"the configured model seed {self.model.seed!r}"
            )
        self.fetch_index = state["fetch_index"]
        self._attempts = dict(state["attempts"])
        self.injected.update(state.get("injected", {}))
