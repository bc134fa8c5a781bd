"""Charset ↔ language mapping (paper Table 1).

The paper's Table 1 maps character encoding schemes to the two target
languages of its experiments:

========  =========================================
Language  Character encoding schemes (charset name)
========  =========================================
Japanese  EUC-JP, SHIFT_JIS, ISO-2022-JP
Thai      TIS-620, WINDOWS-874, ISO-8859-11
========  =========================================

We extend the table with the language-neutral encodings the detector can
emit (ASCII, UTF-8, ISO-8859-1) so every detection result maps to *some*
:class:`Language` value.  UTF-8 and ASCII are mapped to
:attr:`Language.OTHER` — exactly the conservative behaviour the paper's
charset-based classifier exhibits: a UTF-8 Thai page is *not* recognised
as Thai, which is one source of the paper's "mislabeled pages"
observation (§3, observation 3).
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache


class Language(Enum):
    """Languages distinguishable by the charset-based classifier.

    Japanese and Thai are the paper's two targets; Korean is included to
    demonstrate that the method generalises to other national web
    archives (the paper's motivating scenario) with one more charset row
    and one more detector model.
    """

    JAPANESE = "japanese"
    THAI = "thai"
    KOREAN = "korean"
    OTHER = "other"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


# Canonical names for the aliases encountered in META tags and crawl logs.
# Keys are lowercase with separators stripped (see canonical_charset).
_CHARSET_ALIASES: dict[str, str] = {
    # Japanese
    "eucjp": "EUC-JP",
    "xeucjp": "EUC-JP",
    "shiftjis": "SHIFT_JIS",
    "sjis": "SHIFT_JIS",
    "xsjis": "SHIFT_JIS",
    "cp932": "SHIFT_JIS",
    "ms932": "SHIFT_JIS",
    "windows31j": "SHIFT_JIS",
    "iso2022jp": "ISO-2022-JP",
    "csiso2022jp": "ISO-2022-JP",
    "jis": "ISO-2022-JP",
    # Korean
    "euckr": "EUC-KR",
    "xeuckr": "EUC-KR",
    "ksc56011987": "EUC-KR",
    "ksx1001": "EUC-KR",
    "iso2022kr": "ISO-2022-KR",
    "csiso2022kr": "ISO-2022-KR",
    # Thai
    "tis620": "TIS-620",
    "tis6202533": "TIS-620",
    "iso885911": "ISO-8859-11",
    "windows874": "WINDOWS-874",
    "cp874": "WINDOWS-874",
    "xwindows874": "WINDOWS-874",
    # Neutral
    "usascii": "US-ASCII",
    "ascii": "US-ASCII",
    "utf8": "UTF-8",
    "iso88591": "ISO-8859-1",
    "latin1": "ISO-8859-1",
    "windows1252": "WINDOWS-1252",
    "cp1252": "WINDOWS-1252",
}

#: Paper Table 1, extended with the neutral encodings (canonical names).
CHARSET_LANGUAGES: dict[str, Language] = {
    "EUC-JP": Language.JAPANESE,
    "SHIFT_JIS": Language.JAPANESE,
    "ISO-2022-JP": Language.JAPANESE,
    "EUC-KR": Language.KOREAN,
    "ISO-2022-KR": Language.KOREAN,
    "TIS-620": Language.THAI,
    "WINDOWS-874": Language.THAI,
    "ISO-8859-11": Language.THAI,
    "US-ASCII": Language.OTHER,
    "UTF-8": Language.OTHER,
    "ISO-8859-1": Language.OTHER,
    "WINDOWS-1252": Language.OTHER,
}

#: Python codec name for each canonical charset, for encoding synthesized
#: page bodies.  ISO-8859-11 differs from TIS-620 only in NBSP; Python's
#: tis_620 codec covers both for our purposes.
PYTHON_CODECS: dict[str, str] = {
    "EUC-JP": "euc_jp",
    "SHIFT_JIS": "shift_jis",
    "ISO-2022-JP": "iso2022_jp",
    "EUC-KR": "euc_kr",
    "ISO-2022-KR": "iso2022_kr",
    "TIS-620": "tis_620",
    "WINDOWS-874": "cp874",
    "ISO-8859-11": "tis_620",
    "US-ASCII": "ascii",
    "UTF-8": "utf_8",
    "ISO-8859-1": "latin_1",
    "WINDOWS-1252": "cp1252",
}


def canonical_charset(name: str | None) -> str | None:
    """Normalise a charset label to its canonical name.

    Lowercases and strips ``-``/``_``/whitespace before looking the label
    up, so ``"Shift-JIS"``, ``"shift_jis"`` and ``"SJIS"`` all map to
    ``"SHIFT_JIS"``.  Returns ``None`` for an unknown or empty label.
    """
    if not name:
        return None
    key = "".join(ch for ch in name.lower() if ch not in "-_ \t")
    if key in _CHARSET_ALIASES:
        return _CHARSET_ALIASES[key]
    upper = name.strip().upper()
    if upper in CHARSET_LANGUAGES:
        return upper
    return None


@lru_cache(maxsize=1024)
def language_of_charset(name: str | None) -> Language:
    """Map a charset label (any alias) to its :class:`Language`.

    Unknown labels map to :attr:`Language.UNKNOWN` rather than raising:
    the classifier treats unidentifiable pages as irrelevant, it does not
    abort the crawl.  Memoised by label in a bounded table (labels come
    from files), so a scan over a web's records normalises each distinct
    label once.
    """
    canonical = canonical_charset(name)
    if canonical is None:
        return Language.UNKNOWN
    return CHARSET_LANGUAGES[canonical]


def charsets_for_language(language: Language) -> tuple[str, ...]:
    """All canonical charsets whose pages count as ``language``."""
    return tuple(cs for cs, lang in CHARSET_LANGUAGES.items() if lang is language)
