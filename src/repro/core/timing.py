"""Optional crawl timing model.

The paper's simulator "has been implemented with the omission of details
such as elapsed time and per-server queue", and §6 names "incorporating
transfer delays and access intervals" as future work.  This module is
that extension: a simulated clock for a polite, multi-connection crawler.

Model: the crawler owns ``connections`` download slots.  A fetch starts
when both (a) a slot is free and (b) the target server's politeness
window has elapsed since its previous request; it then takes
``latency + size / bandwidth`` seconds.  The model is deliberately
sequential-in-schedule-order — it answers "how long would this crawl
order take", not "what order would a real crawler pick".

Two objects, one per role: :class:`TimingModel` is the *configuration*
— four frozen clock settings, a value that any number of runs may share
— and :class:`VirtualClock` is the *state* of one run's clock, built
from it by :meth:`TimingModel.clock` when a session opens.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.schema import ConfigValue
from repro.urlkit.normalize import url_site_key


@dataclass(frozen=True, slots=True)
class TimingModel(ConfigValue):
    """The settings of a simulated clock for fetch completion times.

    A value: equal and hashable by its four settings, never mutated by a
    run.  Each run keeps time on its own :meth:`clock`.  Its JSON keys
    (and CLI flags) are the short knob names.
    """

    #: Download bandwidth of the simulated clock, in bytes per second.
    bandwidth_bytes_per_s: float = field(
        default=2_000_000.0, metadata={"json": "bandwidth", "flag": True}
    )
    #: Per-request latency of the simulated clock, in seconds.
    latency_s: float = field(default=0.05, metadata={"json": "latency", "flag": True})
    #: Per-host politeness interval of the simulated clock, in seconds.
    politeness_interval_s: float = field(
        default=1.0, metadata={"json": "politeness", "flag": True}
    )
    #: Download slots of a round-based crawl's clock.
    connections: int = 64

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ConfigError("bandwidth_bytes_per_s must be > 0")
        if self.latency_s < 0 or self.politeness_interval_s < 0:
            raise ConfigError("latency and politeness interval must be >= 0")
        if self.connections < 1:
            raise ConfigError("connections must be >= 1")

    def clock(self) -> "VirtualClock":
        """A fresh clock at time zero, for one run."""
        return VirtualClock(self)


def zero_latency_timing() -> TimingModel:
    """A timing model under which every fetch completes instantly.

    Infinite bandwidth (``size / inf == 0.0``), zero latency, zero
    politeness: all completion times are 0.0 and ties resolve purely on
    issue order.  This is the configuration the K=1 ≡ round-based
    equivalence contract is stated (and tested) under.
    """
    return TimingModel(
        bandwidth_bytes_per_s=float("inf"),
        latency_s=0.0,
        politeness_interval_s=0.0,
    )


class VirtualClock:
    """The mutable clock of one run: slot heap, site windows, ``now``."""

    def __init__(self, model: TimingModel) -> None:
        self.bandwidth = model.bandwidth_bytes_per_s
        self.latency = model.latency_s
        self.politeness = model.politeness_interval_s
        # Min-heap of slot-free times, one entry per connection.
        self._slots: list[float] = [0.0] * model.connections
        self._site_available: dict[str, float] = {}
        self.now = 0.0

    def observe_fetch(
        self,
        url: str,
        size: int,
        latency_scale: float = 1.0,
        bandwidth_scale: float = 1.0,
    ) -> float:
        """Account for one fetch; returns its simulated completion time.

        ``latency_scale`` multiplies the per-request latency and
        ``bandwidth_scale`` the effective transfer rate — the hooks the
        fault layer's slow-host model and per-fetch jitter use (1.0 for
        healthy hosts, which keeps the arithmetic bit-identical to the
        unscaled path).
        """
        site = url_site_key(url)
        slot_free = heapq.heappop(self._slots)
        start = max(slot_free, self._site_available.get(site, 0.0))
        latency = self.latency if latency_scale == 1.0 else self.latency * latency_scale
        rate = self.bandwidth if bandwidth_scale == 1.0 else self.bandwidth * bandwidth_scale
        completion = start + latency + size / rate
        heapq.heappush(self._slots, completion)
        self._site_available[site] = start + self.politeness
        if completion > self.now:
            self.now = completion
        return completion

    def reserve_fetch(
        self,
        url: str,
        size: int,
        not_before: float = 0.0,
        latency_scale: float = 1.0,
        bandwidth_scale: float = 1.0,
    ) -> tuple[float, float]:
        """Book one fetch of a ``concurrency=K`` crawl; returns
        ``(start, completion)``.

        Unlike :meth:`observe_fetch`, this does **not** consume a
        connection slot — the caller (:meth:`repro.core.engine.
        CrawlEngine.run`) owns the K slots via its event heap and passes
        the issue-time clock as ``not_before``.  Per-site politeness is
        booked here: the fetch starts at the later of ``not_before`` and
        the site's availability, and the site's next request cannot
        start before ``start + politeness``.
        """
        site = url_site_key(url)
        start = max(not_before, self._site_available.get(site, 0.0))
        latency = self.latency if latency_scale == 1.0 else self.latency * latency_scale
        rate = self.bandwidth if bandwidth_scale == 1.0 else self.bandwidth * bandwidth_scale
        completion = start + latency + size / rate
        self._site_available[site] = start + self.politeness
        if completion > self.now:
            self.now = completion
        return start, completion

    def delay_site(self, url: str, seconds: float) -> None:
        """Push ``url``'s site availability ``seconds`` into the future.

        This is how retry backoff spends *simulated* time: the next
        request to the site cannot start before the backoff has elapsed
        on the simulated clock.  Wall time is never slept.
        """
        if seconds <= 0:
            return
        site = url_site_key(url)
        base = max(self._site_available.get(site, 0.0), self.now)
        self._site_available[site] = base + seconds

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        """Serialisable clock state (see :mod:`repro.core.checkpoint`)."""
        return {
            "bandwidth": self.bandwidth,
            "latency": self.latency,
            "politeness": self.politeness,
            "slots": list(self._slots),
            "site_available": dict(self._site_available),
            "now": self.now,
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot`; the clock resumes mid-crawl exactly."""
        self.bandwidth = state["bandwidth"]
        self.latency = state["latency"]
        self.politeness = state["politeness"]
        self._slots = list(state["slots"])  # serialised heap-ordered
        self._site_available = dict(state["site_available"])
        self.now = state["now"]
