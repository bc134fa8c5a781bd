"""Textual-cue scoring shared by the context-aware strategies.

The hybrid and InfoSpiders-style orderings judge a link by how strongly
its anchor/around text *looks like* the target language.  With no text
classifier in the loop (the paper's world is charset-based relevance),
the detector is a Unicode-block character fraction — language-specific
scripts (Thai, kana/kanji, hangul) are unambiguous, and for Latin-script
targets plain ASCII letters are counted instead.

Strategies do not call the detector on a context's text themselves: they
ask :func:`context_fractions` / :func:`anchor_affinity`, which take the
fractions a record-mode context already knows from its cue byte
(:meth:`repro.graphgen.linkcontext.CuedLinkContext.cue_fractions`) and
read text only for what is left — everything, for a context parsed out
of a body.
"""

from __future__ import annotations

from repro.charset.languages import Language
from repro.errors import ConfigError

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


def _known_fractions(context, language: Language) -> tuple[float, float | None]:
    """``(anchor, around)`` without reading the around text: None where
    only the text can tell."""
    cue_fractions = getattr(context, "cue_fractions", None)
    if cue_fractions is not None:
        return cue_fractions(language)
    return language_char_fraction(context.anchor_text, language), None


def context_fractions(context, language: Language) -> tuple[float, float]:
    """``(anchor, around)`` character fractions of one link context."""
    anchor, around = _known_fractions(context, language)
    if around is None:
        around = language_char_fraction(context.around_text, language)
    return anchor, around


def anchor_affinity(context, language: Language) -> float:
    """``max(anchor, 0.5 * around)``: a full anchor settles it unread."""
    anchor, around = _known_fractions(context, language)
    if anchor >= 1.0:
        return anchor
    if around is None:
        around = language_char_fraction(context.around_text, language)
    return max(anchor, 0.5 * around)
