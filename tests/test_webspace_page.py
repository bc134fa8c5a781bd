"""Unit tests for repro.webspace.page."""

import pytest

from repro.charset.languages import Language
from repro.errors import CrawlLogError
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


class TestJsonRoundTrip:
    def test_minimal_record(self):
        record = PageRecord(url="http://x.example/")
        assert PageRecord.from_json_dict(record.to_json_dict()) == record

    def test_full_record(self):
        record = PageRecord(
            url="http://x.example/page",
            status=302,
            content_type="image/gif",
            charset="EUC-JP",
            true_language=Language.JAPANESE,
            outlinks=("http://a.example/", "http://b.example/"),
            size=12345,
        )
        assert PageRecord.from_json_dict(record.to_json_dict()) == record

    def test_compact_keys_omit_defaults(self):
        data = PageRecord(url="http://x.example/").to_json_dict()
        assert set(data) == {"u", "s"}

    def test_thai_language_serialised(self):
        record = PageRecord(url="http://x.example/", true_language=Language.THAI)
        data = record.to_json_dict()
        assert data["l"] == "thai"
        assert PageRecord.from_json_dict(data).true_language is Language.THAI

    def test_cue_row_round_trips(self):
        record = PageRecord(
            url="http://x.example/",
            outlinks=("http://a.example/", "http://b.example/"),
            link_cues=(0x0A, 0),
        )
        assert PageRecord.from_json_dict(record.to_json_dict()) == record

    def test_ragged_cue_row_is_a_named_error(self):
        data = {"u": "http://x.example/", "o": ["http://a.example/", "http://b.example/"], "lc": [9]}
        with pytest.raises(CrawlLogError, match="x.example.*length 1 != outlink count 2"):
            PageRecord.from_json_dict(data)

    @pytest.mark.parametrize("cue", [0x0E, 0x0F, 0x1F, 0x20, 255, 256, -1])
    def test_undecodable_cue_byte_is_a_named_error(self, cue):
        data = {"u": "http://x.example/", "o": ["http://a.example/"], "lc": [cue]}
        with pytest.raises(CrawlLogError, match=f"x.example.*invalid link cue byte {cue}"):
            PageRecord.from_json_dict(data)
