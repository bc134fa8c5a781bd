"""The crawl candidate and its one canonical serialised form.

Every component that persists candidates — checkpoint snapshots of the
frontiers, the spilling frontier's overflow file — round-trips through
:func:`candidate_to_dict` / :func:`candidate_from_dict` defined here, so
there is exactly one wire format and one re-interning path.  A property
test (``tests/test_core_frontier.py``) pins the round-trip as the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.urlkit.normalize import intern_url


class _UidSlot:
    __slots__ = ("_uid",)


@dataclass(frozen=True, slots=True)
class Candidate(_UidSlot):
    """A URL scheduled for crawling, with strategy bookkeeping.

    Attributes:
        url: normalised URL to fetch.
        priority: larger pops earlier in a
            :class:`~repro.core.frontier.PriorityFrontier`; ignored by
            :class:`~repro.core.frontier.FIFOFrontier`.
        distance: number of consecutive irrelevant referrers on the path
            this URL was discovered through (limited-distance strategies).
        referrer: URL of the page this candidate was extracted from
            (None for seeds); kept for tracing and tests.
        uid: the url-id an id-addressed page source gave this URL, as an
            unverified fetch hint (the source checks it); None until
            :func:`stamp_uid` sets it.  A slot beside the dataclass
            fields, not one of them: it is no part of a candidate's
            identity, is never serialised to checkpoints, and — a frozen
            ``__init__`` pays per field — costs the eight candidates a
            page creates nothing.
    """

    url: str
    priority: int = 0
    distance: int = 0
    referrer: str | None = None

    @property
    def uid(self) -> int | None:
        return getattr(self, "_uid", None)


def stamp_uid(candidate: Candidate, uid: int | None) -> Candidate:
    """Set ``candidate``'s url-id hint in place and return the candidate."""
    object.__setattr__(candidate, "_uid", uid)
    return candidate


def candidate_to_dict(candidate: Candidate) -> dict:
    """Compact JSON form of a candidate (checkpoint/spill serialisation).

    Sparse by design: default-valued fields are omitted, so the common
    case (a seed-priority candidate with no referrer) is one key.
    """
    entry: dict = {"u": candidate.url}
    if candidate.priority:
        entry["p"] = candidate.priority
    if candidate.distance:
        entry["d"] = candidate.distance
    if candidate.referrer is not None:
        entry["r"] = candidate.referrer
    return entry


def candidate_from_dict(entry: dict) -> Candidate:
    """Inverse of :func:`candidate_to_dict`.

    URLs are re-interned on the way in, so a resumed (or refilled) crawl
    regains the pointer-comparison fast path the original run had.
    """
    return Candidate(
        url=intern_url(entry["u"]),
        priority=entry.get("p", 0),
        distance=entry.get("d", 0),
        referrer=entry.get("r"),
    )
