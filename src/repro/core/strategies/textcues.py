"""Textual-cue scoring shared by the context-aware strategies.

The hybrid and InfoSpiders-style orderings judge a link by how strongly
its anchor/around text *looks like* the target language.  With no text
classifier in the loop (the paper's world is charset-based relevance),
the detector is a Unicode-block character fraction — language-specific
scripts (Thai, kana/kanji, hangul) are unambiguous, and for Latin-script
targets plain ASCII letters are counted instead.

Strategies do not call the detector on a context's text themselves: they
ask once a page, :func:`link_fractions` / :func:`anchor_affinities`.  A
record-mode page (:class:`~repro.graphgen.linkcontext.RecordLinkContexts`)
is answered by a table lookup per link, keyed by the cue byte, and by
word lengths where the byte does not settle it; text is read only for
contexts parsed out of a body.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.charset.languages import Language
from repro.errors import ConfigError, SimulationError
from repro.graphgen.linkcontext import CuedLinkContext, RecordLinkContexts, closed_fractions

#: Inclusive codepoint ranges per script-identified language.
_BLOCKS: dict[Language, tuple[tuple[int, int], ...]] = {
    Language.THAI: ((0x0E00, 0x0E7F),),
    Language.JAPANESE: ((0x3040, 0x30FF), (0x4E00, 0x9FFF)),
    Language.KOREAN: ((0x1100, 0x11FF), (0xAC00, 0xD7AF)),
}


def resolve_language(language: Language | str) -> Language:
    """Accept a :class:`Language` or its string value (registry params)."""
    if isinstance(language, Language):
        return language
    try:
        return Language(language)
    except ValueError as exc:
        raise ConfigError(f"unknown language {language!r}") from exc


def language_char_fraction(text: str, language: Language) -> float:
    """Fraction of non-space characters of ``text`` in ``language``'s script.

    Returns 0.0 for empty text.  For languages without a dedicated
    script block (OTHER/UNKNOWN) ASCII letters are counted, which makes
    the score meaningful on Latin-script targets and near zero on CJK or
    Thai text.
    """
    blocks = _BLOCKS.get(language)
    total = 0
    hits = 0
    for char in text:
        if char.isspace():
            continue
        total += 1
        if blocks is None:
            if char.isascii() and char.isalpha():
                hits += 1
            continue
        point = ord(char)
        for low, high in blocks:
            if low <= point <= high:
                hits += 1
                break
    if total == 0:
        return 0.0
    return hits / total


def _fractions(anchor, around):
    return None if around is None else (anchor, around)


def _affinity(anchor, around):
    """``max(anchor, 0.5 * around)``: a full anchor settles it alone."""
    if anchor >= 1.0:
        return anchor
    return None if around is None else max(anchor, 0.5 * around)


def _ask(settle, context, language: Language):
    """``settle(anchor, around)`` of one context; a cued one works its
    around fraction out only where the cue byte leaves ``settle`` at None."""
    if isinstance(context, CuedLinkContext):
        anchor, around = context.cue_fractions(language)
        if settle(anchor, around) is None:
            around = context.around_fraction(language)
    else:
        anchor = language_char_fraction(context.anchor_text, language)
        around = language_char_fraction(context.around_text, language)
    return settle(anchor, around)


@lru_cache(maxsize=None)
def _row(settle, source: Language, target: Language) -> dict:
    """``settle`` per cue byte of a link on a ``source``-language page."""
    return {cue: settle(*pair) for cue, pair in closed_fractions(source, target).items()}


def _ask_page(settle, contexts: Sequence, language: Language) -> list:
    """:func:`_ask` per link — for a record's row a table entry per cue
    byte, and :func:`_ask` only where that is None: the byte does not
    settle it, or is no cue byte (which fails there, by name)."""
    if not isinstance(contexts, RecordLinkContexts):
        return [_ask(settle, context, language) for context in contexts]
    answers = list(map(_row(settle, contexts.source_language, language).get, contexts.cues))
    if None in answers:
        for index, answer in enumerate(answers):
            if answer is None:
                answers[index] = _ask(settle, contexts[index], language)
    return answers


def context_fractions(context, language: Language) -> tuple[float, float]:
    """``(anchor, around)`` character fractions of one link context."""
    return _ask(_fractions, context, language)


def anchor_affinity(context, language: Language) -> float:
    """``max(anchor, 0.5 * around)`` of one link context."""
    return _ask(_affinity, context, language)


def link_fractions(contexts: Sequence, language: Language) -> list[tuple[float, float]]:
    """:func:`context_fractions` of every context of a page, in order."""
    return _ask_page(_fractions, contexts, language)


def anchor_affinities(contexts: Sequence, language: Language) -> list[float]:
    """:func:`anchor_affinity` of every context of a page, in order."""
    return _ask_page(_affinity, contexts, language)


def link_scores(strategy, outlinks: Sequence[str], contexts: Sequence | None, ask, blind) -> list:
    """``ask(contexts, strategy.language)``, one score per outlink —
    ``blind`` for every link of a page that came without contexts."""
    scores = [blind] * len(outlinks) if contexts is None else ask(contexts, strategy.language)
    if len(scores) != len(outlinks):
        raise SimulationError(
            f"{strategy.name}: {len(scores)} link contexts for {len(outlinks)} outlinks"
        )
    return scores
