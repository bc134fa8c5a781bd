"""Engine-side countermeasures against adversarial webs.

:class:`DefenseConfig` is the typed, frozen knob set that rides on
:class:`~repro.core.session.SessionConfig`; :class:`DefensePolicy` is
the per-run mutable state the engine consults:

* **Trap containment** — ``max_url_depth`` drops absurdly deep URLs at
  the gate stage; ``host_page_budget`` stops fetching a host after it
  has served that many *consecutive* irrelevant pages (a relevant page
  resets the streak).  Both target the defining trap property (one
  host, an unbounded off-topic stream) without needing to *recognise*
  traps.
* **Alias canonicalization** — ``strip_session_ids`` rewrites
  ``?sid=…``-style URLs to their base at the gate, so a churning-alias
  host costs one fetch per distinct page instead of one per alias.
* **Redirect discipline** — ``max_redirect_hops`` caps chain following
  and arms loop detection.  Unset, the engine follows naively up to a
  large safety cap with no loop memory (the defenses-off baseline).
* **Duplicate collapsing** — ``fingerprint_dupes`` fingerprints each
  page (a cheap min-hash over byte shingles when bodies exist, the
  record identity otherwise) and suppresses the outlinks of any page
  whose content was already seen — session aliases stop multiplying.
* **Soft-404 down-weighting** — once a host has served
  ``soft404_threshold`` irrelevant pages with repeating fingerprints,
  further such pages stop contributing links.

All decisions are pure functions of crawl-visible state, so a resumed
crawl behaves identically once :meth:`DefensePolicy.restore` reloads the
fingerprint set and per-host counters from a checkpoint.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigError
from repro.schema import ConfigValue
from repro.webspace.virtualweb import FetchResponse

#: Chain-following cap when no defense limit is configured: generous
#: enough that every honest chain resolves, small enough that a loop
#: cannot wedge the engine — it just burns 25 fetches, which is the
#: defenses-off degradation the survival sweep measures.
NAIVE_REDIRECT_CAP = 25

_SHINGLE_WINDOW = 32
_SHINGLE_STRIDE = 16

#: Query keys a canonicalizing gate treats as session identifiers.  The
#: classic crawler defense against churning-alias hosts: the content is
#: keyed by the path, so the query is noise and the URL is rewritten to
#: its base before scheduling dedup.
SESSION_QUERY_KEYS = frozenset({"sid", "sessionid", "session", "phpsessid", "jsessionid"})


def shingle_hash(body: bytes) -> str:
    """A cheap shingle fingerprint of ``body``.

    Four-bucket min-hash over CRC32s of overlapping 32-byte windows:
    bodies differing only by small insertions (a title, a session id
    echoed into the page) usually keep 3–4 minima and collide, while
    genuinely different pages do not.  Costs one CRC per 16 bytes.
    """
    if len(body) <= _SHINGLE_WINDOW:
        return f"s:{zlib.crc32(body):08x}"
    minima = [0xFFFFFFFF] * 4
    for start in range(0, len(body) - _SHINGLE_WINDOW + 1, _SHINGLE_STRIDE):
        value = zlib.crc32(body[start : start + _SHINGLE_WINDOW])
        bucket = value & 3
        if value < minima[bucket]:
            minima[bucket] = value
    return "s:" + ".".join(f"{m:08x}" for m in minima)


def url_depth(url: str) -> int:
    """Path-segment depth of an absolute URL (``http://h/a/b`` → 2)."""
    depth = url.count("/") - 2
    return depth if depth > 0 else 0


@dataclass(frozen=True, slots=True)
class DefenseConfig(ConfigValue):
    """Engine defense knobs, all off by default.

    An all-default config is inert: the engine builds no policy for it
    and the gate/extract stages stay byte-identical to a defenseless
    run (pinned by the golden suite).
    """

    #: Skip URLs deeper than this many path segments.
    max_url_depth: int | None = field(default=None, metadata={"flag": True})
    #: Per-host budget of *consecutive* pages judged irrelevant: once a
    #: host serves this many in an unbroken run, it is refused at the
    #: gate.  A relevant page resets its host's streak, which is what
    #: makes the budget trap containment rather than collateral damage —
    #: a trap subtree or boilerplate mill is an unbounded irrelevant
    #: stream, while an honest mixed-language host keeps resetting.
    host_page_budget: int | None = field(default=None, metadata={"flag": True})
    #: Follow at most this many redirect hops, with loop detection.
    max_redirect_hops: int | None = field(default=None, metadata={"flag": True})
    fingerprint_dupes: bool = False
    soft404_threshold: int | None = None
    #: Rewrite session-id query URLs (``?sid=…``) to their base at the
    #: gate, before the fetch: aliases of an already-crawled page are
    #: skipped outright, and the first alias of a page is crawled under
    #: its canonical URL.
    strip_session_ids: bool = False

    def __post_init__(self) -> None:
        for name in ("max_url_depth", "host_page_budget", "max_redirect_hops"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"DefenseConfig.{name} must be >= 1, got {value!r}")
        if self.soft404_threshold is not None and self.soft404_threshold < 1:
            raise ConfigError(
                f"DefenseConfig.soft404_threshold must be >= 1, got {self.soft404_threshold!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when any knob is armed (the engine builds a policy)."""
        return (
            self.max_url_depth is not None
            or self.host_page_budget is not None
            or self.max_redirect_hops is not None
            or self.fingerprint_dupes
            or self.soft404_threshold is not None
            or self.strip_session_ids
        )

    @classmethod
    def standard(cls) -> "DefenseConfig":
        """The defenses-on preset of the survival sweep and CLI."""
        return cls(
            max_url_depth=4,
            host_page_budget=25,
            max_redirect_hops=5,
            fingerprint_dupes=True,
            soft404_threshold=3,
            strip_session_ids=True,
        )


class DefensePolicy:
    """Mutable defense state consulted by the engine's hot loop.

    One instance per run.  The engine calls :meth:`admit` at the gate
    stage (before spending a fetch), :meth:`suppress_links` +
    :meth:`note_page` after classification.  Everything is
    checkpointable: :meth:`snapshot` captures the fingerprint set and
    per-host counters so a resumed crawl makes identical decisions.
    """

    def __init__(self, config: DefenseConfig) -> None:
        self.config = config
        self._host_pages: dict[str, int] = {}
        self._fingerprints: set[str] = set()
        self._boiler: dict[str, int] = {}
        self.stats: dict[str, int] = {
            "depth_skips": 0,
            "host_budget_skips": 0,
            "duplicates_collapsed": 0,
            "soft404_link_drops": 0,
            "alias_skips": 0,
        }
        self._needs_fingerprint = config.fingerprint_dupes or (
            config.soft404_threshold is not None
        )

    # -- gate stage ----------------------------------------------------------

    def canonicalize(self, url: str) -> str | None:
        """The session-stripped form of ``url``, or None if unchanged.

        Only fires on URLs whose query leads with a known session key
        (:data:`SESSION_QUERY_KEYS`); organic URLs carry no query, so
        the clean path never pays more than one ``"?" in url`` check.
        """
        if not self.config.strip_session_ids or "?" not in url:
            return None
        base, _, query = url.partition("?")
        if query.split("=", 1)[0].lower() not in SESSION_QUERY_KEYS:
            return None
        return base

    def admit(self, url: str, host: str) -> bool:
        """Whether the engine should spend a fetch on ``url`` at all."""
        config = self.config
        if config.max_url_depth is not None and url_depth(url) > config.max_url_depth:
            self.stats["depth_skips"] += 1
            return False
        if (
            config.host_page_budget is not None
            and self._host_pages.get(host, 0) >= config.host_page_budget
        ):
            self.stats["host_budget_skips"] += 1
            return False
        return True

    # -- post-classify stage -------------------------------------------------

    @staticmethod
    def fingerprint(response: FetchResponse) -> str:
        """Content identity of a response, cheapest faithful signal first."""
        if response.body is not None:
            return shingle_hash(response.body)
        if response.record is not None:
            return f"r:{response.record.url}"
        return f"m:{response.status}:{response.charset}:{response.size}"

    def suppress_links(self, response: FetchResponse, host: str, relevant: bool) -> bool:
        """Whether this page's outlinks should be discarded.

        Also maintains the fingerprint set and per-host boilerplate
        counts, so it must be called exactly once per recorded step.
        """
        if not self._needs_fingerprint:
            return False
        fingerprint = self.fingerprint(response)
        duplicate = fingerprint in self._fingerprints
        if duplicate:
            self._boiler[host] = self._boiler.get(host, 0) + 1
        else:
            self._fingerprints.add(fingerprint)
        suppress = False
        if duplicate and self.config.fingerprint_dupes:
            self.stats["duplicates_collapsed"] += 1
            suppress = True
        threshold = self.config.soft404_threshold
        if (
            threshold is not None
            and not relevant
            and duplicate
            and self._boiler.get(host, 0) >= threshold
        ):
            self.stats["soft404_link_drops"] += 1
            suppress = True
        return suppress

    def note_page(self, host: str, relevant: bool) -> None:
        """Advance a host's consecutive-irrelevant streak.

        A relevant page resets the streak to zero (see
        :attr:`DefenseConfig.host_page_budget`): a trap subtree or
        boilerplate mill is an unbroken irrelevant stream and trips the
        budget fast; an honest mixed host keeps resetting it.
        """
        if relevant:
            if host in self._host_pages:
                self._host_pages[host] = 0
        else:
            self._host_pages[host] = self._host_pages.get(host, 0) + 1

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "host_pages": dict(self._host_pages),
            "fingerprints": sorted(self._fingerprints),
            "boiler": dict(self._boiler),
            "stats": dict(self.stats),
        }

    def restore(self, state: Mapping) -> None:
        self._host_pages = dict(state["host_pages"])
        self._fingerprints = set(state["fingerprints"])
        self._boiler = dict(state["boiler"])
        self.stats.update(state.get("stats", {}))
