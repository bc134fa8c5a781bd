"""The serve wire protocol: JSON commands over any byte transport.

One request is one JSON object with a ``cmd`` field; one response is one
JSON object with ``ok`` (plus the command's payload, or an ``error``
object).  The same :class:`ProtocolHandler` backs both transports in
:mod:`repro.serve.server` — newline-delimited JSON over stdio, and HTTP
POST bodies — so a scripted stdio client and an HTTP client observe
identical semantics.

A request says what to crawl (:class:`WireRequest`); ``config`` is the
:class:`~repro.core.session.SessionConfig` JSON (:mod:`repro.schema`),
every field the one-shot API takes except the live ones and files on
the server (``checkpoint_path``, a spill directory).

Commands::

    {"cmd": "open", "session": "s1",
     "request": {"strategy": "soft-focused", "params": {},
                 "dataset": {"profile": "thai", "scale": 0.08, "seed": 7}},
     "config": {"max_pages": 400, "checkpoint_every": 50,
                "faults": {"seed": 3, "global": {"transient_error_rate": 0.1}}}}
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
from dataclasses import dataclass
from typing import Any, Callable, Collection, Mapping

from repro.core.session import CrawlRequest, SessionConfig, report_payload
from repro.errors import ReproError, SessionError
from repro.experiments.datasets import load_or_build_dataset
from repro.graphgen import profile_by_name
from repro.schema import ConfigValue, decode, decode_value, host_paths
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


@dataclass(frozen=True)
class WireDataset(ConfigValue):
    """A wire request's web space: a generator recipe, or a page store."""

    #: Generator profile name (``thai``, ``japanese``, ``korean``).
    profile: str | None = None
    #: Universe scale, snapped to :data:`SCALE_GRID`.
    scale: float = 1.0
    #: Universe seed (default: the next of the process's seed pool).
    seed: int | None = None
    capture_kind: str | None = None
    capture_n: int | None = None
    #: A prebuilt columnar page store: the path *is* the dataset.
    store: str | None = None


@dataclass(frozen=True)
class WireRequest(ConfigValue):
    """What an ``open`` command crawls: a registry strategy over a web space."""

    strategy: str
    dataset: WireDataset
    params: tuple[tuple[str, Any], ...] = ()


def _require(payload: Mapping[str, Any], key: str, cmd: str) -> Any:
    if key not in payload:
        raise SessionError(f"{cmd!r} needs a {key!r} field")
    return payload[key]


def _session(payload: Mapping[str, Any], cmd: str) -> str:
    return decode_value(str, _require(payload, "session", cmd), f"{cmd}.session")


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

    def _dataset(self, spec: WireDataset, keys: Collection[str]) -> Any:
        """The web space ``spec`` names; ``keys`` are the ones the client sent."""
        if spec.store is not None:
            # The store's header carries profile/seeds/capture, so every
            # other key would be ignored — reject them instead of lying.
            extra = sorted(set(keys) - {"store"})
            if extra:
                raise SessionError(f"dataset store= excludes other dataset keys: {extra}")
            from repro.experiments.datasets import open_dataset_store

            return self._cached(("store", spec.store), lambda: open_dataset_store(spec.store))
        if spec.profile is None:
            raise SessionError("'dataset' needs a 'profile' or a 'store' field")
        if spec.scale <= 0:
            raise SessionError(f"dataset scale must be > 0, got {spec.scale!r}")
        # Snap to the grid (keeps the cache small under load generation).
        scale = max(SCALE_GRID, round(spec.scale / SCALE_GRID) * SCALE_GRID)
        seed = spec.seed if spec.seed is not None else self._next_seed()

        def build() -> Any:
            profile = profile_by_name(spec.profile, seed=seed)
            if scale != 1.0:
                profile = profile.scaled(scale)
            kwargs: dict[str, Any] = {}
            if spec.capture_kind is not None:
                kwargs["capture_kind"] = spec.capture_kind
            if spec.capture_n is not None:
                kwargs["capture_n"] = spec.capture_n
            if self._dataset_cache_dir is not None:
                kwargs["cache_dir"] = self._dataset_cache_dir
            return load_or_build_dataset(profile, **kwargs)

        key = (spec.profile, round(scale, 6), seed, spec.capture_kind or "reference", spec.capture_n)
        return self._cached(key, build)

    def _cached(self, key: tuple, build: Callable[[], Any]) -> Any:
        """The dataset cached under ``key``, built on a miss (LRU, capped)."""
        with self._datasets_lock:
            dataset = self._datasets.pop(key, None)
            if dataset is not None:
                self._datasets[key] = dataset  # refresh LRU recency
                return dataset
        dataset = build()
        with self._datasets_lock:
            dataset = self._datasets.setdefault(key, dataset)
            while len(self._datasets) > self._dataset_cache_size:
                self._datasets.pop(next(iter(self._datasets)))
        return dataset

    def build_request(self, spec: Mapping[str, Any]) -> CrawlRequest:
        """A resolved :class:`CrawlRequest` from its wire form."""
        if isinstance(spec, Mapping) and {"faults", "adversary"} & spec.keys():
            raise SessionError("faults and adversary ride in the config object, not the request")
        wire = decode(WireRequest, spec, "request")
        request = CrawlRequest(
            strategy=wire.strategy,
            params=dict(wire.params),
            dataset=self._dataset(wire.dataset, spec["dataset"].keys()),
        )
        # Resolve now: the web space is materialised once and shared by
        # every evict/resume cycle of this session.
        return request.resolve()

    def build_config(self, spec: Mapping[str, Any]) -> SessionConfig:
        """A :class:`SessionConfig` from its wire form — its own JSON
        (:meth:`SessionConfig.from_json`), minus any file on this host."""
        config = SessionConfig.from_json(spec)
        named = host_paths(config)
        if named:
            raise SessionError(f"wire configs cannot name files on the server: {named}")
        return config

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
        name = _session(payload, "open")
        request = self.build_request(_require(payload, "request", "open"))
        config = self.build_config(payload.get("config") or {})
        status = self.manager.open(name, request, config)
        return {"session": name, "status": status.to_dict()}

    def _cmd_step(self, payload: Mapping[str, Any]) -> dict:
        name = _session(payload, "step")
        budget = decode_value(int | None, payload.get("budget"), "step.budget")
        status = self.manager.step(name, budget)
        return {"session": name, "status": status.to_dict()}

    def _cmd_status(self, payload: Mapping[str, Any]) -> dict:
        name = _session(payload, "status")
        return {"session": name, "status": self.manager.status(name).to_dict()}

    def _cmd_report(self, payload: Mapping[str, Any]) -> dict:
        name = _session(payload, "report")
        result = self.manager.report(name)
        return {"session": name, "report": report_payload(result)}

    def _cmd_evict(self, payload: Mapping[str, Any]) -> dict:
        name = _session(payload, "evict")
        self.manager.evict(name)
        return {"session": name, "status": self.manager.status(name).to_dict()}

    def _cmd_close(self, payload: Mapping[str, Any]) -> dict:
        name = _session(payload, "close")
        result = self.manager.close(name)
        return {"session": name, "report": report_payload(result)}

    def _cmd_stats(self, payload: Mapping[str, Any]) -> dict:
        return {"stats": self.manager.stats()}

    def _cmd_shutdown(self, payload: Mapping[str, Any]) -> dict:
        self.shutting_down = True
        self.manager.close_all()
        return {"bye": True}
