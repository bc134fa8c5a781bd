"""Unit tests for the exception hierarchy and crawl events."""

import pytest

from repro import errors
from repro.charset.languages import Language
from repro.core.classifier import Judgment
from repro.core.engine import CrawlEvent
from repro.core.frontier import Candidate
from repro.webspace.virtualweb import FetchResponse


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.ConfigError,
        errors.UrlError,
        errors.UnknownPageError,
        errors.CrawlLogError,
        errors.DetectionError,
        errors.SimulationError,
        errors.FrontierError,
    ]

    def test_all_derive_from_repro_error(self):
        for error_type in self.ALL_ERRORS:
            assert issubclass(error_type, errors.ReproError)

    def test_single_except_catches_everything(self):
        for error_type in self.ALL_ERRORS:
            try:
                if error_type is errors.UnknownPageError:
                    raise error_type("http://x.example/")
                raise error_type("boom")
            except errors.ReproError:
                pass

    def test_unknown_page_error_is_keyerror_too(self):
        assert issubclass(errors.UnknownPageError, KeyError)

    def test_unknown_page_error_message(self):
        error = errors.UnknownPageError("http://x.example/")
        assert error.url == "http://x.example/"
        assert "http://x.example/" in str(error)
        assert str(error).startswith("unknown page")


class TestCrawlEvent:
    def make_event(self) -> CrawlEvent:
        return CrawlEvent(
            step=3,
            candidate=Candidate(url="http://x.example/", priority=2, distance=1),
            response=FetchResponse(
                url="http://x.example/",
                status=200,
                content_type="text/html",
                charset="TIS-620",
                outlinks=(),
                size=100,
            ),
            judgment=Judgment(relevant=True, language=Language.THAI, charset="TIS-620"),
            queue_size=5,
            scheduled_count=9,
        )

    def test_url_accessor(self):
        assert self.make_event().url == "http://x.example/"

    def test_frozen(self):
        event = self.make_event()
        with pytest.raises(AttributeError):
            event.step = 4  # type: ignore[misc]

    def test_sim_time_defaults_none(self):
        assert self.make_event().sim_time is None

    def test_judgment_score(self):
        event = self.make_event()
        assert event.judgment.score == 1.0
