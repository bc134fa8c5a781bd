"""Seeded adversary decisions: which hosts trap, which URLs lie.

Follows the :class:`~repro.faults.FaultModel` design exactly: every
decision is a pure function of ``(seed, kind, token)`` via a keyed
blake2b draw, so two models with the same seed agree on every trap
host, redirect chain and charset lie they would ever produce, in any
query order.  The model is a value, never mutated by a run: all mutable
adversary state — the global fetch index, the redirect-chain target map
and the ``injected`` tallies — lives in
:class:`~repro.adversary.web.AdversarialWebSpace`, which the checkpoint
layer snapshots.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path

from repro.charset.languages import canonical_charset
from repro.errors import ConfigError
from repro.schema import ConfigValue, decode, read_json

#: Declared-charset swaps of the mislabelling scenario: each Thai
#: charset lies as a Japanese one and vice versa (paper §3 — the exact
#: confusion a charset-trusting classifier cannot see through, while a
#: byte-level detector can).
MISLABEL_MAP: dict[str, str] = {
    "TIS-620": "EUC-JP",
    "EUC-JP": "TIS-620",
    "WINDOWS-874": "SHIFT_JIS",
    "SHIFT_JIS": "WINDOWS-874",
    "ISO-8859-11": "ISO-2022-JP",
    "ISO-2022-JP": "ISO-8859-11",
}

_RATE_FIELDS = (
    "trap_host_rate",
    "redirect_rate",
    "redirect_loop_rate",
    "soft404_rate",
    "alias_host_rate",
    "mislabel_rate",
)


def _bare_host(site: str) -> str:
    """Strip the port from a site key (profiles name hosts portless)."""
    return site.rsplit(":", 1)[0] if ":" in site else site


@dataclass(frozen=True, slots=True)
class AdversaryProfile(ConfigValue):
    """Knobs of one adversarial web, all off by default.

    An all-default profile is *empty*: :class:`AdversarialWebSpace`
    passes every fetch through untouched, which is the clean-path
    byte-identity guarantee the golden suite pins.

    Attributes:
        trap_host_rate: fraction of hosts that are spider traps — their
            pages link into an unbounded synthetic ``/cal/`` subtree.
        trap_hosts: explicitly trapped hosts (bare names, no port),
            unioned with the seeded draw.
        trap_fanout: synthetic child links per trap page.
        redirect_rate: fraction of known URLs served as the head of a
            301 chain instead of their content.
        redirect_hops: interior hops per chain (the content arrives
            after ``redirect_hops + 1`` fetches — or never, for loops).
        redirect_loop_rate: fraction of chains that loop back to their
            first hop instead of terminating.
        soft404_rate: fraction of dead URLs answered with a 200-OK
            boilerplate page (plus a few equally dead outlinks) instead
            of an honest 404.
        soft404_fanout: synthetic outlinks per soft-404 page.
        alias_host_rate: fraction of hosts that are crawler-hostile —
            links *into* them are rewritten with churning per-referrer
            ``?sid=`` session aliases of the same content.
        alias_hosts: explicitly hostile hosts, unioned with the draw.
        mislabel_rate: fraction of charset-declaring pages whose
            declaration is swapped per :data:`MISLABEL_MAP` while the
            body bytes keep the true encoding.
    """

    trap_host_rate: float = 0.0
    trap_hosts: tuple[str, ...] = ()
    trap_fanout: int = 3
    redirect_rate: float = 0.0
    redirect_hops: int = 3
    redirect_loop_rate: float = 0.0
    soft404_rate: float = 0.0
    soft404_fanout: int = 2
    alias_host_rate: float = 0.0
    alias_hosts: tuple[str, ...] = ()
    mislabel_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"AdversaryProfile.{name} must be in [0, 1], got {value!r}")
        if self.trap_fanout < 1:
            raise ConfigError("trap_fanout must be >= 1")
        if self.soft404_fanout < 0:
            raise ConfigError("soft404_fanout must be >= 0")
        if self.redirect_hops < 1:
            raise ConfigError("redirect_hops must be >= 1")

    @property
    def is_empty(self) -> bool:
        """True when no scenario can ever fire."""
        return (
            all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)
            and not self.trap_hosts
            and not self.alias_hosts
        )


@dataclass(frozen=True)
class AdversaryModel(ConfigValue):
    """Seeded, stateless-by-construction adversary decisions.

    A value: equal and hashable by ``(profile, seed)``.  Its JSON (an
    ``--adversary`` file, the wire's ``adversary`` object) is ``{"seed",
    "profile"}``; an ``--adversary`` file may also hold a bare profile
    (:meth:`load`).

    Args:
        profile: the :class:`AdversaryProfile` in force.
        seed: hash key; same seed ⇒ identical adversarial web.
    """

    profile: AdversaryProfile = field(default_factory=AdversaryProfile)
    #: Seed of every adversary decision.
    seed: int = field(default=0, metadata={"flag": "adversary-seed", "override_only": True})
    _key: bytes = field(init=False, repr=False, compare=False)
    _trap_hosts: frozenset[str] = field(init=False, repr=False, compare=False)
    _alias_hosts: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        setattr_ = object.__setattr__
        key = blake2b(f"lswc-adversary:{self.seed}".encode(), digest_size=16).digest()
        setattr_(self, "_key", key)
        setattr_(self, "_trap_hosts", frozenset(self.profile.trap_hosts))
        setattr_(self, "_alias_hosts", frozenset(self.profile.alias_hosts))

    @classmethod
    def load(cls, path: str | Path) -> AdversaryModel:
        """The model an ``--adversary`` file holds: its JSON, or a bare
        :class:`AdversaryProfile` object (seed 0)."""
        data = read_json(path, "adversary model")
        if isinstance(data, Mapping) and not ("profile" in data or data.keys() <= {"seed"}):
            return cls(profile=decode(AdversaryProfile, data, str(path)))
        return decode(cls, data, str(path))

    # -- derived randomness --------------------------------------------------

    def _unit(self, kind: str, token: str) -> float:
        """A deterministic uniform draw in [0, 1) for (seed, kind, token)."""
        digest = blake2b(f"{kind}:{token}".encode(), digest_size=8, key=self._key).digest()
        return int.from_bytes(digest, "big") / 2**64

    def token_hex(self, kind: str, token: str, length: int = 8) -> str:
        """A deterministic hex token for minting synthetic URLs."""
        digest = blake2b(f"{kind}:{token}".encode(), digest_size=8, key=self._key)
        return digest.hexdigest()[:length]

    # -- decisions -----------------------------------------------------------

    def is_trap_host(self, host: str) -> bool:
        bare = _bare_host(host)
        if bare in self._trap_hosts:
            return True
        rate = self.profile.trap_host_rate
        return bool(rate) and self._unit("traphost", bare) < rate

    def is_alias_host(self, host: str) -> bool:
        bare = _bare_host(host)
        if bare in self._alias_hosts:
            return True
        rate = self.profile.alias_host_rate
        return bool(rate) and self._unit("aliashost", bare) < rate

    def redirects(self, url: str) -> bool:
        rate = self.profile.redirect_rate
        return bool(rate) and self._unit("redirect", url) < rate

    def chain_loops(self, token: str) -> bool:
        rate = self.profile.redirect_loop_rate
        return bool(rate) and self._unit("rloop", token) < rate

    def soft404(self, url: str) -> bool:
        rate = self.profile.soft404_rate
        return bool(rate) and self._unit("soft404", url) < rate

    def mislabels(self, url: str) -> bool:
        rate = self.profile.mislabel_rate
        return bool(rate) and self._unit("mislabel", url) < rate

    @staticmethod
    def mislabel_for(charset: str) -> str | None:
        """The lying declaration for ``charset``, or None if unmapped."""
        canonical = canonical_charset(charset)
        if canonical is None:
            return None
        return MISLABEL_MAP.get(canonical)

    def trap_size(self, url: str) -> int:
        """Deterministic byte size of a synthetic trap page."""
        return 1200 + int(self._unit("trapsize", url) * 2800)
