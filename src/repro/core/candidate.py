"""The crawl candidate, the link run, and the candidate's two serialised forms.

A candidate is a plain tuple with field names — cheap to build,
immutable, and transposable: an ``itemgetter`` mapped over a batch
yields a column (:data:`FIELDS`) and ``tuple.__new__`` rebuilds
candidates from columns without a Python-level call per field.  The
links of one page share everything but their URL, so the paper's
orderings expand a page into one :class:`LinkRun` — its URL tuple and
the shared fields — rather than one candidate per link.

Two serialised forms, one per shape of traffic:

- **one dict per candidate** (:func:`candidate_to_dict` /
  :func:`candidate_from_dict`) for a *stream of single candidates*: the
  spilling frontier's overflow file (one JSONL line per candidate) and
  the at most K in-flight events of a checkpoint's ``sched`` section.
  Sparse — default-valued fields are omitted.
- **columns over a URL table** (:func:`candidates_to_columns` /
  :func:`candidates_from_columns`) for a *batch*: the checkpoint
  snapshot of a whole frontier.  Four parallel lists ``u, p, d, r``,
  where ``u`` and ``r`` are positions in a table of URL strings shared
  by the whole checkpoint (``-1`` = no referrer), so every URL is
  written, parsed and re-interned once however many candidates name it.

Neither form carries the ``uid`` hint: it is not part of a candidate's
identity, and leaving it out is what keeps the checkpoints of a memory
crawl and a store crawl byte-equal.  Property tests
(``tests/test_prop_frontier.py``) pin both round trips as the identity.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from functools import partial
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple, cast, overload

import numpy as np

from repro.errors import CheckpointError
from repro.urlkit.normalize import intern_url


class Candidate(NamedTuple):
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
            :func:`stamp_uid` sets it.  No part of a candidate's
            identity — ``==`` and ``hash`` read the first four fields
            only — and never serialised.
    """

    url: str
    priority: int = 0
    distance: int = 0
    referrer: str | None = None
    uid: int | None = None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Candidate):
            return self[:4] == other[:4]
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Candidate):
            return self[:4] != other[:4]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self[:4])


#: A candidate from a tuple of its five fields, without a Python frame:
#: what ``Candidate._make`` does, minus its call and its length check.
new_candidate = cast(
    "Callable[[tuple], Candidate]", partial(tuple.__new__, Candidate)
)


class LinkRun(Sequence[Candidate]):
    """The new links of one page: candidates that share ``priority``,
    ``distance`` and ``referrer``, held as one value.

    Every ordering of the paper gives all the links of a page the same
    bookkeeping, so a page's expansion is its URL tuple plus those three
    fields — and, once scheduled over an id-addressed source, the
    url-ids aligned with ``urls`` (``uids``, None elsewhere).  As a
    ``Sequence[Candidate]`` it is the list of candidates it stands for:
    indexing and iteration build them, and it compares equal to that
    list.  The engine schedules a run whole — repeats within the page
    dropped, the fresh URLs queued by
    :meth:`~repro.core.frontier.Frontier.push_run` — so no Python frame
    is spent per link.
    """

    __slots__ = ("urls", "priority", "distance", "referrer", "uids")

    def __init__(
        self,
        urls: Iterable[str],
        priority: int,
        distance: int,
        referrer: str | None,
        uids: Sequence[int | None] | None = None,
    ) -> None:
        self.urls: tuple[str, ...] = tuple(urls)
        self.priority = priority
        self.distance = distance
        self.referrer = referrer
        self.uids = uids

    def __len__(self) -> int:
        return len(self.urls)

    def __iter__(self) -> Iterator[Candidate]:
        uids = repeat(None) if self.uids is None else self.uids
        shared = repeat(self.priority), repeat(self.distance), repeat(self.referrer)
        return map(new_candidate, zip(self.urls, *shared, uids))

    @overload
    def __getitem__(self, index: int) -> Candidate: ...

    @overload
    def __getitem__(self, index: slice) -> list[Candidate]: ...

    def __getitem__(self, index: int | slice) -> Candidate | list[Candidate]:
        if isinstance(index, slice):
            return list(self)[index]
        uid = None if self.uids is None else self.uids[index]
        return new_candidate((self.urls[index], self.priority, self.distance, self.referrer, uid))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (LinkRun, list)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"LinkRun({list(self)!r})"


def stamp_uid(candidate: Candidate, uid: int | None) -> Candidate:
    """A copy of ``candidate`` carrying the url-id hint ``uid``."""
    return new_candidate(candidate[:4] + (uid,))


def candidate_to_dict(candidate: Candidate) -> dict:
    """Compact JSON form of one candidate (spill lines, in-flight events).

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


#: ``candidate[0]`` … ``candidate[3]`` — url, priority, distance,
#: referrer — as C callables.  A batch is transposed by mapping each over
#: it, which allocates one list per column and nothing per candidate:
#: ``zip(*candidates)`` holds one iterator per candidate, and on a large
#: frontier those set off garbage collections that cost more than the
#: transpose.
FIELDS = tuple(map(itemgetter, range(4)))


def candidates_to_columns(candidates: Collection[Candidate], index: dict[str, int]) -> dict:
    """A batch of candidates as columns ``u, p, d, r`` over a URL table.

    ``index`` maps URL to table position; a URL it does not hold yet
    takes the next position, so ``list(index)`` afterwards *is* the
    table the columns refer to (dicts keep insertion order).
    """
    urls, priorities, distances, referrers = (list(map(field, candidates)) for field in FIELDS)
    return url_columns(urls, priorities, distances, referrers, index)


def url_columns(
    urls: Sequence[str],
    priorities: list[int],
    distances: list[int],
    referrers: Sequence[str | None],
    index: dict[str, int],
) -> dict:
    """:func:`candidates_to_columns` of candidates given as four columns
    (``priorities`` and ``distances`` become columns as they are): the
    URL positions, then the referrer positions
    (:func:`url_positions`, :func:`referrer_positions`)."""
    u = url_positions(urls, index)
    return {"u": u, "p": priorities, "d": distances, "r": referrer_positions(referrers, index)}


def url_positions(urls: Sequence[str], index: dict[str, int]) -> list[int]:
    """The positions of ``urls`` in ``index``, a URL it lacks appended.

    Looked up by ``map`` over the index, with no Python frame per URL;
    only when a URL is missing does the batch take the per-URL route
    that appends it, in order, so the table comes out the same either
    way.
    """
    try:
        return list(map(index.__getitem__, urls))
    except KeyError:
        position = index.setdefault
        return [position(url, len(index)) for url in urls]


def referrer_positions(referrers: Sequence[str | None], index: dict[str, int]) -> list[int]:
    """:func:`url_positions` of ``referrers``, ``None`` (no referrer) at ``-1``."""
    # ``None`` is never a key, so it maps to -1 with the misses; equal
    # counts of -1 and None mean there were no misses.
    lookup = cast("Callable[[str | None, int], int]", index.get)
    r = list(map(lookup, referrers, repeat(-1)))
    if r.count(-1) != referrers.count(None):
        position = index.setdefault
        r = [-1 if url is None else position(url, len(index)) for url in referrers]
    return r


def is_list_of(value: object, kind: type) -> bool:
    """Is ``value`` a list whose every entry is exactly a ``kind``?

    The check restored JSON gets before it is trusted as a column or a
    URL table; exact types, so ``True`` is not an integer.  C speed.
    """
    return isinstance(value, list) and set(map(type, value)) <= {kind}


def int_column(section: Mapping, name: str, length: int | None = None) -> np.ndarray:
    """``section[name]`` checked to be a column of integers (of ``length``).

    A numpy array is checked by its dtype, not element by element: a
    version-5 checkpoint's columns come off disk in one of its integer
    dtypes, and a frontier snapshot's are int64.  A list — what the
    JSONL reader gives, or a caller built — must hold exact ints
    (:func:`is_list_of`: ``True`` is not one) and is made an int64
    array, so every column is checked and used one way from here on.

    Raises:
        CheckpointError: anything else — a column that would only fail
            (or silently misorder a heap) many steps after the resume.
    """
    column = section.get(name)
    if isinstance(column, np.ndarray):
        if column.ndim != 1 or column.dtype.kind != "i":
            raise CheckpointError(f"column {name!r} is not a list of integers")
    elif is_list_of(column, int):
        try:
            column = np.array(column, dtype=np.int64)
        except OverflowError:
            raise CheckpointError(f"column {name!r} holds an integer past 64 bits") from None
    else:
        raise CheckpointError(f"column {name!r} is not a list of integers")
    if length is not None and len(column) != length:
        raise CheckpointError(
            f"column {name!r} has {len(column)} entries where {length} were expected"
        )
    return column


def checked_columns(
    columns: Mapping, table_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The columns ``u, p, d, r`` of a batch (:func:`int_column`), checked
    against a table of ``table_size`` URLs with one numpy pass each.

    Raises:
        CheckpointError: ragged or non-integer columns, or a position
            outside the table — ``-1`` is "no referrer" in ``r`` only,
            and no negative position ever wraps around.
    """
    u = int_column(columns, "u")
    size = len(u)
    p = int_column(columns, "p", size)
    d = int_column(columns, "d", size)
    r = int_column(columns, "r", size)
    if size and (u.min() < 0 or r.min() < -1 or max(u.max(), r.max()) >= table_size):
        raise CheckpointError(
            f"candidate columns point outside the {table_size}-entry URL table"
        )
    return u, p, d, r


def candidates_from_columns(columns: Mapping, table: Sequence[str]) -> list[Candidate]:
    """Inverse of :func:`candidates_to_columns` over the (interned) table.

    Raises:
        CheckpointError: as :func:`checked_columns`.
    """
    u, p, d, r = (column.tolist() for column in checked_columns(columns, len(table)))
    # Past the range check the only negative position is r's -1, which
    # indexes the appended None.
    url_at = [*table, None].__getitem__
    return list(map(new_candidate, zip(map(url_at, u), p, d, map(url_at, r), repeat(None))))
