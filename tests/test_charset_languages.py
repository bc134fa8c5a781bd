"""Unit tests for repro.charset.languages (paper Table 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.charset.languages import (
    _CHARSET_ALIASES,
    CHARSET_LANGUAGES,
    PYTHON_CODECS,
    Language,
    canonical_charset,
    charsets_for_language,
    language_of_charset,
)


class TestTable1:
    """The exact mapping published as the paper's Table 1."""

    @pytest.mark.parametrize("charset", ["EUC-JP", "SHIFT_JIS", "ISO-2022-JP"])
    def test_japanese_charsets(self, charset):
        assert language_of_charset(charset) is Language.JAPANESE

    @pytest.mark.parametrize("charset", ["TIS-620", "WINDOWS-874", "ISO-8859-11"])
    def test_thai_charsets(self, charset):
        assert language_of_charset(charset) is Language.THAI

    def test_charsets_for_language_japanese(self):
        assert set(charsets_for_language(Language.JAPANESE)) == {
            "EUC-JP",
            "SHIFT_JIS",
            "ISO-2022-JP",
        }

    def test_charsets_for_language_thai(self):
        assert set(charsets_for_language(Language.THAI)) == {
            "TIS-620",
            "WINDOWS-874",
            "ISO-8859-11",
        }


class TestCanonicalCharset:
    @pytest.mark.parametrize(
        "alias,expected",
        [
            ("euc-jp", "EUC-JP"),
            ("EUC_JP", "EUC-JP"),
            ("x-euc-jp", "EUC-JP"),
            ("Shift-JIS", "SHIFT_JIS"),
            ("shift_jis", "SHIFT_JIS"),
            ("SJIS", "SHIFT_JIS"),
            ("cp932", "SHIFT_JIS"),
            ("Windows-31J", "SHIFT_JIS"),
            ("iso-2022-jp", "ISO-2022-JP"),
            ("tis-620", "TIS-620"),
            ("TIS620", "TIS-620"),
            ("windows-874", "WINDOWS-874"),
            ("cp874", "WINDOWS-874"),
            ("utf-8", "UTF-8"),
            ("UTF8", "UTF-8"),
            ("us-ascii", "US-ASCII"),
            ("ascii", "US-ASCII"),
            ("latin1", "ISO-8859-1"),
            ("iso-8859-1", "ISO-8859-1"),
        ],
    )
    def test_aliases(self, alias, expected):
        assert canonical_charset(alias) == expected

    def test_unknown_returns_none(self):
        assert canonical_charset("klingon-8") is None

    def test_none_returns_none(self):
        assert canonical_charset(None) is None

    def test_empty_returns_none(self):
        assert canonical_charset("") is None

    def test_whitespace_tolerated(self):
        assert canonical_charset("  euc-jp ") == "EUC-JP"


class TestLanguageOfCharset:
    def test_unknown_maps_to_unknown(self):
        assert language_of_charset("mystery") is Language.UNKNOWN

    def test_none_maps_to_unknown(self):
        assert language_of_charset(None) is Language.UNKNOWN

    def test_utf8_maps_to_other(self):
        # The conservative behaviour behind the paper's mislabeled pages:
        # a UTF-8 Thai page is not recognised as Thai by charset alone.
        assert language_of_charset("UTF-8") is Language.OTHER

    def test_ascii_maps_to_other(self):
        assert language_of_charset("us-ascii") is Language.OTHER


class TestConsistency:
    def test_every_charset_has_a_codec(self):
        assert set(CHARSET_LANGUAGES) == set(PYTHON_CODECS)

    def test_all_codecs_resolve(self):
        import codecs

        for codec_name in PYTHON_CODECS.values():
            assert codecs.lookup(codec_name) is not None

    def test_language_str(self):
        assert str(Language.THAI) == "thai"


class TestMemoisedLanguageOfCharset:
    """The by-label table answers exactly what the normalising lookup does."""

    uncached = staticmethod(language_of_charset.__wrapped__)

    def _agrees(self, label):
        expected = self.uncached(label)
        assert language_of_charset(label) is expected
        assert language_of_charset(label) is expected  # now from the table

    @pytest.mark.parametrize("label", [*_CHARSET_ALIASES, *CHARSET_LANGUAGES, None, ""])
    def test_every_alias_and_canonical_name(self, label):
        self._agrees(label)

    @given(st.text(max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_drawn_labels(self, label):
        self._agrees(label)

    def test_table_is_bounded(self):
        assert language_of_charset.cache_info().maxsize is not None
