"""The serve wire protocol: JSON commands over any byte transport.

One request is one JSON object with a ``cmd`` field; one response is one
JSON object with ``ok`` (plus the command's payload, or an ``error``
object).  The same :class:`ProtocolHandler` backs both transports in
:mod:`repro.serve.server` — newline-delimited JSON over stdio, and HTTP
POST bodies — so a scripted stdio client and an HTTP client observe
identical semantics.

Commands::

    {"cmd": "open", "session": "s1",
     "request": {"strategy": "soft-focused", "params": {},
                 "dataset": {"profile": "thai", "scale": 0.08, "seed": 7}},
     "config": {"max_pages": 400, "checkpoint_every": 50}}
    {"cmd": "step", "session": "s1", "budget": 100}
    {"cmd": "status", "session": "s1"}
    {"cmd": "report", "session": "s1"}       # deterministic report payload
    {"cmd": "evict", "session": "s1"}        # force evict-to-disk
    {"cmd": "close", "session": "s1"}        # final report + teardown
    {"cmd": "stats"}
    {"cmd": "ping"}
    {"cmd": "shutdown"}

Determinism contract: a session's ``dataset.seed`` defaults to
``base_seed + (open-counter mod seed_pool)`` — the N-th ``open`` of a
serve process always crawls the same web space, and seedless sessions
cycle through a small pool of spaces instead of each materialising a
fresh one — and ``report`` returns
:func:`repro.core.session.report_payload`, the exact payload a one-shot
:func:`repro.api.run_crawl` of the same request produces, evictions or
not.  Resolved web spaces are cached per ``(profile, scale, seed,
synth)`` so many sessions (and evict/resume cycles) share one in-memory
graph; the cache is LRU-bounded (``dataset_cache_size``) so a
long-running serve process holds a fixed number of graphs, not one per
session ever opened.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from repro.adversary import AdversaryModel, AdversaryProfile, DefenseConfig
from repro.core.session import CrawlRequest, SessionConfig, report_payload
from repro.core.timing import CLOCK_KNOBS, TimingModel
from repro.errors import ReproError, SessionError
from repro.experiments.datasets import load_or_build_dataset
from repro.faults.model import FaultModel, FaultProfile
from repro.faults.resilience import BreakerPolicy, ResilienceConfig, RetryPolicy
from repro.graphgen import profile_by_name
from repro.serve.manager import SessionManager

__all__ = ["ProtocolHandler", "DEFAULT_BASE_SEED", "DEFAULT_SEED_POOL"]

#: Session seeds count up from here when the client does not pin one.
DEFAULT_BASE_SEED = 20050405  # the paper's DEWS 2005 date

#: Seedless opens cycle through this many counter-derived seeds, so
#: wire sessions share cached web-space builds instead of each
#: materialising (and caching) a new one.
DEFAULT_SEED_POOL = 8

#: LRU cap on cached resolved datasets — the serve process's
#: steady-state graph memory is bounded by this, not by how many
#: sessions it has ever opened.
DEFAULT_DATASET_CACHE_SIZE = 32

#: Web-space scales are snapped to this grid so nearby load-generated
#: sizes share one cached dataset build.
SCALE_GRID = 0.01

_REQUEST_KEYS = {"strategy", "params", "dataset", "faults", "adversary"}
_DATASET_KEYS = {"profile", "scale", "seed", "capture_kind", "capture_n", "store"}
_CONFIG_KEYS = {
    "max_pages",
    "sample_interval",
    "extract_from_body",
    "checkpoint_every",
    "resilience",
    "concurrency",
    "timing",
    "defenses",
}


def _require(payload: Mapping[str, Any], key: str, cmd: str) -> Any:
    if key not in payload:
        raise SessionError(f"{cmd!r} needs a {key!r} field")
    return payload[key]


class ProtocolHandler:
    """Decode JSON commands, drive a :class:`SessionManager`, encode replies."""

    def __init__(
        self,
        manager: SessionManager,
        base_seed: int = DEFAULT_BASE_SEED,
        dataset_cache_dir: str | None = None,
        seed_pool: int = DEFAULT_SEED_POOL,
        dataset_cache_size: int = DEFAULT_DATASET_CACHE_SIZE,
    ) -> None:
        if seed_pool < 1:
            raise SessionError("seed_pool must be >= 1")
        if dataset_cache_size < 1:
            raise SessionError("dataset_cache_size must be >= 1")
        self.manager = manager
        self._base_seed = base_seed
        self._dataset_cache_dir = dataset_cache_dir
        self._seed_pool = seed_pool
        self._dataset_cache_size = dataset_cache_size
        self._counter = 0
        self._counter_lock = threading.Lock()
        #: LRU dataset cache: dict insertion order is recency order
        #: (entries are re-inserted on hit, oldest popped past the cap).
        self._datasets: dict[tuple, Any] = {}
        self._datasets_lock = threading.Lock()
        self.shutting_down = False

    # -- request assembly ----------------------------------------------

    def _next_seed(self) -> int:
        with self._counter_lock:
            seed = self._base_seed + self._counter % self._seed_pool
            self._counter += 1
            return seed

    def _dataset(self, spec: Mapping[str, Any]) -> Any:
        unknown = set(spec) - _DATASET_KEYS
        if unknown:
            raise SessionError(f"unknown dataset keys: {sorted(unknown)}")
        store_path = spec.get("store")
        if store_path is not None:
            # A prebuilt columnar store: the path *is* the dataset (its
            # header carries profile/seeds/capture), so every other key
            # would be ignored — reject them instead of lying.
            extra = set(spec) - {"store"}
            if extra:
                raise SessionError(
                    f"dataset store= excludes other dataset keys: {sorted(extra)}"
                )
            key = ("store", str(store_path))
            with self._datasets_lock:
                dataset = self._datasets.pop(key, None)
                if dataset is not None:
                    self._datasets[key] = dataset
            if dataset is None:
                from repro.experiments.datasets import open_dataset_store

                dataset = open_dataset_store(store_path)
                with self._datasets_lock:
                    dataset = self._datasets.setdefault(key, dataset)
                    while len(self._datasets) > self._dataset_cache_size:
                        self._datasets.pop(next(iter(self._datasets)))
            return dataset
        profile_name = _require(spec, "profile", "dataset")
        scale = float(spec.get("scale", 1.0))
        if scale <= 0:
            raise SessionError(f"dataset scale must be > 0, got {scale!r}")
        # Snap to the grid (keeps the cache small under load generation).
        scale = max(SCALE_GRID, round(scale / SCALE_GRID) * SCALE_GRID)
        seed = spec.get("seed")
        if seed is None:
            seed = self._next_seed()
        key = (
            profile_name,
            round(scale, 6),
            int(seed),
            spec.get("capture_kind", "reference"),
            spec.get("capture_n"),
        )
        with self._datasets_lock:
            dataset = self._datasets.pop(key, None)
            if dataset is not None:
                self._datasets[key] = dataset  # refresh LRU recency
        if dataset is None:
            profile = profile_by_name(profile_name, seed=int(seed))
            if scale != 1.0:
                profile = profile.scaled(scale)
            kwargs: dict[str, Any] = {}
            if "capture_kind" in spec:
                kwargs["capture_kind"] = spec["capture_kind"]
            if spec.get("capture_n") is not None:
                kwargs["capture_n"] = int(spec["capture_n"])
            if self._dataset_cache_dir is not None:
                kwargs["cache_dir"] = self._dataset_cache_dir
            dataset = load_or_build_dataset(profile, **kwargs)
            with self._datasets_lock:
                dataset = self._datasets.setdefault(key, dataset)
                while len(self._datasets) > self._dataset_cache_size:
                    self._datasets.pop(next(iter(self._datasets)))
        return dataset

    def build_request(self, spec: Mapping[str, Any]) -> CrawlRequest:
        """A resolved :class:`CrawlRequest` from its wire form."""
        unknown = set(spec) - _REQUEST_KEYS
        if unknown:
            raise SessionError(f"unknown request keys: {sorted(unknown)}")
        strategy = _require(spec, "strategy", "request")
        if not isinstance(strategy, str):
            raise SessionError("wire requests name strategies by registry name")
        dataset_spec = _require(spec, "dataset", "request")
        request = CrawlRequest(
            strategy=strategy,
            params=dict(spec.get("params") or {}),
            dataset=self._dataset(dataset_spec),
        )
        # Resolve now: the web space is materialised once and shared by
        # every evict/resume cycle of this session.
        return request.resolve()

    def build_config(
        self, spec: Mapping[str, Any], faults: Any = None, adversary: Any = None
    ) -> SessionConfig:
        unknown = set(spec) - _CONFIG_KEYS
        if unknown:
            raise SessionError(f"unknown config keys: {sorted(unknown)}")
        defenses = None
        if spec.get("defenses") is not None:
            defenses = DefenseConfig.from_json_dict(spec["defenses"])
        resilience = None
        if spec.get("resilience") is not None:
            rspec = dict(spec["resilience"])
            retry = rspec.pop("retry", None)
            breaker = rspec.pop("breaker", None)
            if rspec:
                raise SessionError(f"unknown resilience keys: {sorted(rspec)}")
            resilience = ResilienceConfig(
                retry=RetryPolicy(**retry) if retry is not None else RetryPolicy(),
                breaker=BreakerPolicy(**breaker) if breaker is not None else None,
            )
        timing = None
        if spec.get("timing") is not None:
            # Wire timing knobs: {"latency": s, "bandwidth": bytes/s,
            # "politeness": s} — the session-local clock of an
            # event-driven (concurrency=K) crawl.
            tspec = dict(spec["timing"])
            unknown = set(tspec) - CLOCK_KNOBS.keys()
            if unknown:
                raise SessionError(f"unknown timing keys: {sorted(unknown)}")
            timing = TimingModel(
                **{CLOCK_KNOBS[key]: float(value) for key, value in tspec.items()}
            )
        kwargs: dict[str, Any] = {
            k: spec[k]
            for k in (
                "max_pages",
                "sample_interval",
                "extract_from_body",
                "checkpoint_every",
                "concurrency",
            )
            if k in spec and spec[k] is not None
        }
        return SessionConfig(
            resilience=resilience,
            faults=faults,
            adversary=adversary,
            defenses=defenses,
            timing=timing,
            **kwargs,
        )

    @staticmethod
    def build_faults(spec: Mapping[str, Any] | None) -> FaultModel | None:
        if spec is None:
            return None
        spec = dict(spec)
        seed = int(spec.pop("seed", 0))
        return FaultModel(profile=FaultProfile.from_json_dict(spec), seed=seed)

    @staticmethod
    def build_adversary(spec: Mapping[str, Any] | None) -> AdversaryModel | None:
        """An :class:`AdversaryModel` from its wire form (like faults,
        the seed rides inside the spec: ``{"seed": N, ...profile...}``)."""
        if spec is None:
            return None
        spec = dict(spec)
        seed = int(spec.pop("seed", 0))
        return AdversaryModel(profile=AdversaryProfile.from_json_dict(spec), seed=seed)

    # -- command dispatch ----------------------------------------------

    def handle(self, payload: Mapping[str, Any]) -> dict:
        """One request in, one response out; errors become error replies."""
        try:
            if not isinstance(payload, Mapping):
                raise SessionError("a request must be a JSON object")
            cmd = _require(payload, "cmd", "request")
            handler: Callable[[Mapping[str, Any]], dict] | None = getattr(
                self, f"_cmd_{cmd}", None
            )
            if handler is None:
                raise SessionError(f"unknown command {cmd!r}")
            response = handler(payload)
            response["ok"] = True
            return response
        except ReproError as exc:
            return {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }

    def _cmd_ping(self, payload: Mapping[str, Any]) -> dict:
        return {"pong": True}

    def _cmd_open(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "open")
        request = self.build_request(_require(payload, "request", "open"))
        faults = self.build_faults(payload.get("request", {}).get("faults"))
        adversary = self.build_adversary(payload.get("request", {}).get("adversary"))
        config = self.build_config(
            payload.get("config") or {}, faults=faults, adversary=adversary
        )
        status = self.manager.open(str(name), request, config)
        return {"session": name, "status": status.to_dict()}

    def _cmd_step(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "step")
        budget = payload.get("budget")
        status = self.manager.step(str(name), int(budget) if budget is not None else None)
        return {"session": name, "status": status.to_dict()}

    def _cmd_status(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "status")
        return {"session": name, "status": self.manager.status(str(name)).to_dict()}

    def _cmd_report(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "report")
        result = self.manager.report(str(name))
        return {"session": name, "report": report_payload(result)}

    def _cmd_evict(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "evict")
        self.manager.evict(str(name))
        return {"session": name, "status": self.manager.status(str(name)).to_dict()}

    def _cmd_close(self, payload: Mapping[str, Any]) -> dict:
        name = _require(payload, "session", "close")
        result = self.manager.close(str(name))
        return {"session": name, "report": report_payload(result)}

    def _cmd_stats(self, payload: Mapping[str, Any]) -> dict:
        return {"stats": self.manager.stats()}

    def _cmd_shutdown(self, payload: Mapping[str, Any]) -> dict:
        self.shutting_down = True
        self.manager.close_all()
        return {"bye": True}
