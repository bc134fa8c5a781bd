"""Per-link anchor/around text: cue encoding and deterministic synthesis.

The generator can mark individual links with *textual cues* — anchor text
or surrounding text written in the **target page's** language
(``DatasetProfile.anchor_cue_probability`` / ``around_cue_probability``).
This module owns both halves of that feature:

- the **cue byte** packed per link into ``PageRecord.link_cues`` (and the
  optional ``link_cues`` page-store column): the low three bits name the
  cue language (index+1 into :data:`CUE_LANGUAGES`; 0 = no cue), bit
  ``0x08`` flags an anchor-text cue and bit ``0x10`` an around-text cue;

- the **deterministic text** for a link, a pure function of
  ``(source_url, target_url)`` via a keyed blake2b seed.  The HTML body
  synthesizer's cue mode and the record-mode contexts draw the anchor
  from this one function, so it is the same text whether the run reads
  records or renders bodies.

Record-mode strategies do not read that text, though: they read the
share of each text's characters in the target language's script, and
every vocabulary word is wholly inside one script.  So a page's links
travel as one :class:`RecordLinkContexts` row (:func:`record_link_contexts`,
what :meth:`repro.core.visitor.Visitor.extract_contexts` hands out) and
each :class:`CuedLinkContext` it stands for answers those fractions from
the cue byte; a link whose around text mixes two scripts makes the
text's word draws and sums word lengths
(:meth:`CuedLinkContext.around_fraction`) — nothing on the crawl path
writes text.

The byte layout is part of the on-disk dataset format: the order of
:data:`CUE_LANGUAGES` must never change.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.charset.languages import Language
from repro.errors import CrawlLogError
from repro.graphgen.textgen import TextGenerator, _flavor_tables, flavor_for
from repro.webspace.page import VALID_LINK_CUES, PageRecord

#: Cue-language table indexed by (cue_byte & _LANGUAGE_MASK) - 1.
#: Order is frozen: it is baked into stored ``link_cues`` columns.
CUE_LANGUAGES: tuple[Language, ...] = (
    Language.JAPANESE,
    Language.THAI,
    Language.KOREAN,
    Language.OTHER,
    Language.UNKNOWN,
)

_LANGUAGE_MASK = 0x07
ANCHOR_CUE_BIT = 0x08
AROUND_CUE_BIT = 0x10

_LANGUAGE_CODES = {language: index + 1 for index, language in enumerate(CUE_LANGUAGES)}

#: What each byte means: ``(cue language or None, anchor flag, around
#: flag)``, or None for a byte no generator writes (language code 6-7, a
#: bit above ``0x1F``).
_CUE_TABLE: tuple[tuple[Language | None, bool, bool] | None, ...] = tuple(
    (
        CUE_LANGUAGES[(byte & _LANGUAGE_MASK) - 1] if byte & _LANGUAGE_MASK else None,
        bool(byte & ANCHOR_CUE_BIT),
        bool(byte & AROUND_CUE_BIT),
    )
    if byte in VALID_LINK_CUES
    else None
    for byte in range(256)
)


def cue_byte(language: Language, *, anchor: bool = False, around: bool = False) -> int:
    """Pack one link's cue into a byte; 0 if neither cue fires."""
    if not (anchor or around):
        return 0
    value = _LANGUAGE_CODES[language]
    if anchor:
        value |= ANCHOR_CUE_BIT
    if around:
        value |= AROUND_CUE_BIT
    return value


def cue_language_code(language: Language) -> int:
    """The 3-bit language code for ``language`` (for vectorised packing)."""
    return _LANGUAGE_CODES[language]


def _decode(cue: int) -> tuple[Language | None, bool, bool]:
    entry = _CUE_TABLE[cue] if 0 <= cue < 256 else None
    if entry is None:
        raise CrawlLogError(f"invalid link cue byte {cue!r}")
    return entry


def cue_language(cue: int) -> Language | None:
    """The cue language named by a cue byte, or None for language code 0."""
    return _decode(cue)[0]


def has_anchor_cue(cue: int) -> bool:
    return _decode(cue)[1]


def has_around_cue(cue: int) -> bool:
    return _decode(cue)[2]


@lru_cache(maxsize=None)
def closed_fractions(
    source: Language, target: Language
) -> dict[int, tuple[float, float | None]]:
    """Per valid cue byte, the ``(anchor, around)`` fractions of a link on
    a ``source``-language page scored for ``target``.

    A text whose words all come from one script scores 1.0 when that is
    ``target``'s script and 0.0 otherwise (``flavor_for`` is the script:
    the three block languages have their own, everything else is ASCII
    letters; ``tests/test_linkcontext.py`` pins that every vocabulary
    word obeys it).  The anchor is one such text.  The around text is
    source-language prose + the anchor + a cue-language run when the
    around bit is set: 1.0 if every part matches, 0.0 if none does, and
    None — only the word lengths can tell — when they disagree.  A dict:
    ``.get`` is None for any other int, where an index raises or wraps.
    """
    script = flavor_for(target)
    rows: dict[int, tuple[float, float | None]] = {}
    for byte, entry in enumerate(_CUE_TABLE):
        if entry is None:
            continue
        language, anchor_cue, around_cue = entry
        language = language or source
        parts = [source, language if anchor_cue else source]
        if around_cue:
            parts.append(language)
        hits = [flavor_for(part) == script for part in parts]
        around = 1.0 if all(hits) else None if any(hits) else 0.0
        rows[byte] = (1.0 if hits[1] else 0.0, around)
    return rows


@lru_cache(maxsize=None)
def _word_lengths(flavor: str) -> tuple[list[int], np.ndarray]:
    """``(characters per vocabulary word, zipf cumulative)`` of a flavor."""
    vocabulary, cumulative, _, _ = _flavor_tables(flavor)
    return [len(word) for word in vocabulary], cumulative


def _link_seed(source_url: str, target_url: str) -> int:
    payload = f"{source_url}\x1f{target_url}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big")


def link_context_text(
    source_url: str,
    target_url: str,
    source_language: Language,
    cue: int,
) -> tuple[str, str]:
    """Deterministic ``(anchor_text, around_words)`` for one link.

    The anchor phrase is drawn in the cue language when the anchor-cue
    bit is set, otherwise in the source page's language; ``around_words``
    is a short cue-language run when the around-cue bit is set, else
    ``""``.  Pure function of the arguments — the body synthesizer and
    the record-mode context synthesis both call it, and therefore agree.
    """
    language, anchor_cue, around_cue = _decode(cue)
    language = language or source_language
    rng = np.random.default_rng(_link_seed(source_url, target_url))
    anchor_lang = language if anchor_cue else source_language
    anchor = TextGenerator(flavor_for(anchor_lang), rng).phrase(1, 3)
    around = ""
    if around_cue:
        around = " ".join(TextGenerator(flavor_for(language), rng).words(3))
    return anchor, around


class CuedLinkContext:
    """One outlink of a record: fractions from the cue byte, text on demand.

    Reads like a :class:`~repro.urlkit.extract.LinkContext` (``url``,
    ``anchor_text``, ``around_text``), but each text access synthesizes
    the link afresh — scoring goes through :meth:`cue_fractions` and
    :meth:`around_fraction`, which write none.
    """

    __slots__ = ("url", "_source_url", "_source_language", "_cue")

    def __init__(self, url: str, source_url: str, source_language: Language, cue: int) -> None:
        self.url = url
        self._source_url = source_url
        self._source_language = source_language
        self._cue = cue

    def texts(self) -> tuple[str, str]:
        """``(anchor_text, around_text)``: the around text embeds the
        anchor after a short run of source-language words, mimicking what
        a body parse would capture around the anchor."""
        source_url, source_language = self._source_url, self._source_language
        anchor, around_words = link_context_text(source_url, self.url, source_language, self._cue)
        rng = np.random.default_rng(_link_seed(source_url, self.url) ^ 0xA5A5A5A5)
        prose = " ".join(TextGenerator(flavor_for(source_language), rng).words(4))
        return anchor, " ".join(part for part in (prose, anchor, around_words) if part)

    @property
    def anchor_text(self) -> str:
        return self.texts()[0]

    @property
    def around_text(self) -> str:
        return self.texts()[1]

    def cue_fractions(self, language: Language) -> tuple[float, float | None]:
        """``(anchor, around)`` character fractions in ``language``'s
        script; ``around`` is None when only :meth:`around_fraction` can tell."""
        fractions = closed_fractions(self._source_language, language).get(self._cue)
        if fractions is None:
            raise CrawlLogError(f"{self._source_url!r}: invalid link cue byte {self._cue!r}")
        return fractions

    def around_fraction(self, language: Language) -> float:
        """:attr:`around_text`'s character fraction in ``language``'s
        script, unwritten: :meth:`texts`' draws in its order, word lengths
        summed in their place — words hold no whitespace and lie in one
        script, so these are the two ints the character walk counts."""
        cue_language, anchor_cue, around_cue = _decode(self._cue)
        source = self._source_language
        cue_language = cue_language or source
        seed = _link_seed(self._source_url, self.url)
        rng = np.random.default_rng(seed)
        parts = [(cue_language if anchor_cue else source, rng.random(int(rng.integers(1, 4))))]
        if around_cue:
            parts.append((cue_language, rng.random(3)))
        parts.append((source, np.random.default_rng(seed ^ 0xA5A5A5A5).random(4)))
        script = flavor_for(language)
        hits = total = 0
        for part_language, draws in parts:
            flavor = flavor_for(part_language)
            lengths, cumulative = _word_lengths(flavor)
            characters = sum([lengths[index] for index in cumulative.searchsorted(draws)])
            total += characters
            if flavor == script:
                hits += characters
        return hits / total


class RecordLinkContexts(Sequence):
    """One record's link contexts as a row: its outlinks beside their
    cue bytes, so that scoring a page is a table lookup per link
    (:func:`repro.core.strategies.textcues.anchor_affinities`); a
    :class:`CuedLinkContext` is made only when one is indexed, sliced
    or iterated out."""

    __slots__ = ("urls", "cues", "source_url", "source_language")

    def __init__(self, record: PageRecord) -> None:
        self.urls = record.outlinks
        self.cues = record.link_cues if record.link_cues is not None else (0,) * len(self.urls)
        if len(self.cues) != len(self.urls):
            raise ValueError(f"{record.url!r}: link_cues and outlinks differ in length")
        self.source_url = record.url
        self.source_language = record.true_language

    def __len__(self) -> int:
        return len(self.urls)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[position] for position in range(*index.indices(len(self))))
        return CuedLinkContext(
            self.urls[index], self.source_url, self.source_language, self.cues[index]
        )


def record_link_contexts(record: PageRecord) -> RecordLinkContexts:
    """One context per ``record.outlinks`` entry, in order, as one row.

    Records without a ``link_cues`` column (legacy datasets, cue knobs
    at 0) still yield contexts — every link simply reads as written in
    the source page's language, carrying no cue signal.
    """
    return RecordLinkContexts(record)
