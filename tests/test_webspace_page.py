"""Unit tests for repro.webspace.page."""

import pytest

from repro.charset.languages import Language
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK, PageRecord


class TestPageRecord:
    def test_defaults(self):
        record = PageRecord(url="http://x.example/")
        assert record.status == STATUS_OK
        assert record.content_type == HTML_CONTENT_TYPE
        assert record.charset is None
        assert record.true_language is Language.OTHER
        assert record.outlinks == ()
        assert record.size == 0

    def test_ok_property(self):
        assert PageRecord(url="http://x.example/").ok
        assert not PageRecord(url="http://x.example/", status=404).ok
        assert not PageRecord(url="http://x.example/", status=302).ok

    def test_is_html(self):
        assert PageRecord(url="http://x.example/").is_html
        assert not PageRecord(url="http://x.example/", content_type="image/gif").is_html

    def test_declared_language_from_charset(self):
        record = PageRecord(url="http://x.example/", charset="TIS-620")
        assert record.declared_language is Language.THAI

    def test_declared_language_alias(self):
        record = PageRecord(url="http://x.example/", charset="Shift-JIS")
        assert record.declared_language is Language.JAPANESE

    def test_declared_language_none_charset(self):
        record = PageRecord(url="http://x.example/", charset=None)
        assert record.declared_language is Language.UNKNOWN

    def test_mislabeled_true_when_disagreeing(self):
        record = PageRecord(
            url="http://x.example/", charset="UTF-8", true_language=Language.THAI
        )
        assert record.mislabeled

    def test_mislabeled_false_when_agreeing(self):
        record = PageRecord(
            url="http://x.example/", charset="TIS-620", true_language=Language.THAI
        )
        assert not record.mislabeled

    def test_outlinks_list_coerced_to_tuple(self):
        record = PageRecord(url="http://x.example/", outlinks=["http://a.example/"])
        assert record.outlinks == ("http://a.example/",)

    def test_frozen(self):
        record = PageRecord(url="http://x.example/")
        with pytest.raises(AttributeError):
            record.status = 500  # type: ignore[misc]
