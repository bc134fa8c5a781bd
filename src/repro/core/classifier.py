"""Page relevance determination (paper §3.2).

"In language specific web crawling, a given page is considered relevant
if it is written in the target language."  Relevance is binary (score 1
or 0), derived from the page's character encoding scheme, which can be
established four ways:

``charset``
    Trust the charset recorded in the crawl log — equivalent to reading
    the server/author declaration without touching bytes.  This is the
    paper's Thai-dataset method and the default.
``meta``
    Parse the META declaration out of the synthesized HTML body; like
    ``charset`` but exercising the real parsing path end to end.
``detector``
    Run the composite byte-distribution detector on the body — the
    paper's Japanese-dataset method (the "Mozilla Charset Detector").
``oracle``
    Use the generator's ground-truth language.  Not available to real
    crawlers; exists to upper-bound classifier error in ablations.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from enum import Enum
from time import perf_counter

from repro.charset.detector import detect_charset
from repro.charset.languages import Language, language_of_charset
from repro.charset.meta import parse_meta_charset
from repro.errors import ConfigError
from repro.webspace.page import HTML_CONTENT_TYPE, STATUS_OK
from repro.webspace.virtualweb import FetchResponse


class ClassifierMode(Enum):
    """How the classifier establishes a page's language."""

    CHARSET = "charset"
    META = "meta"
    DETECTOR = "detector"
    ORACLE = "oracle"


@dataclass(frozen=True, slots=True)
class Judgment:
    """Outcome of classifying one fetched page."""

    relevant: bool
    language: Language
    charset: str | None

    @property
    def score(self) -> float:
        """Relevance score as the paper defines it: 1.0 or 0.0."""
        return 1.0 if self.relevant else 0.0


_IRRELEVANT = Judgment(relevant=False, language=Language.UNKNOWN, charset=None)

#: ``ClassifierMode`` members as module globals: reading an Enum member
#: off its class costs more than the rest of a cached judgment.
_CHARSET = ClassifierMode.CHARSET
_META = ClassifierMode.META
_ORACLE = ClassifierMode.ORACLE


class ClassifierCache:
    """Bounded LRU of classification outcomes, keyed by content identity.

    Strategy sweeps re-classify the same bytes once per strategy: four
    strategies over one dataset run the charset detector four times on
    every body.  Judgments depend only on (mode, target language,
    content), and :class:`Judgment` is frozen, so memoising them is
    exact — the cached and uncached classifier agree on every input
    (``tests/test_prop_classifier_cache.py`` pins this property).

    Keys are built by the classifier: the declared charset string in
    ``charset`` mode, the body bytes in ``meta``/``detector`` mode (see
    :meth:`Classifier.judge`).  One cache may be shared by several
    classifiers — the key carries mode and target language.

    Hit/miss/eviction counters are always on (two int increments per
    lookup); the simulator publishes them as ``classifier.cache.*``
    gauges through :mod:`repro.obs` at the end of an instrumented run.
    """

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_entries")

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ConfigError("ClassifierCache max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[object, Judgment] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: object) -> Judgment | None:
        """The cached judgment for ``key``, refreshed as most recent."""
        entries = self._entries
        judgment = entries.get(key)
        if judgment is None:
            self.misses += 1
            return None
        self.hits += 1
        # Move to the MRU end, so the first key is always the least
        # recently used (an OrderedDict pops it in O(1); a plain dict
        # would rescan the tombstones this churn leaves at its front).
        entries.move_to_end(key)
        return judgment

    def store(self, key: object, judgment: Judgment) -> None:
        """Insert a judgment, evicting the least recently used on overflow."""
        entries = self._entries
        if key not in entries and len(entries) >= self.max_entries:
            entries.popitem(last=False)
            self.evictions += 1
        entries[key] = judgment

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Counter snapshot (the shape the obs gauges publish)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
        }


class Classifier:
    """Judges whether fetched pages are in the target language.

    Args:
        target_language: the language that counts as relevant.
        mode: how the page's language is established (see module doc).
        cache: optional :class:`ClassifierCache`; when given, judgments
            are memoised by content identity.  Share one cache across
            the classifiers of a strategy sweep to skip re-detection.
    """

    def __init__(
        self,
        target_language: Language,
        mode: ClassifierMode | str = ClassifierMode.CHARSET,
        cache: ClassifierCache | None = None,
    ) -> None:
        if isinstance(mode, str):
            try:
                mode = ClassifierMode(mode)
            except ValueError:
                valid = ", ".join(m.value for m in ClassifierMode)
                raise ConfigError(f"unknown classifier mode {mode!r}; expected one of {valid}") from None
        self.target_language = target_language
        self.mode = mode
        self.cache = cache
        self._instr = None
        # Cache keys lead with one plain string: an Enum hashes in Python.
        self._key_tag = f"{mode.value}:{target_language!r}"

    def bind_instrumentation(self, instrumentation) -> None:
        """Attach a :class:`repro.obs.Instrumentation` for timing.

        With a hub bound, every judgment is timed under
        "classifier.judge" and tallied into the "classifier.relevant" /
        "classifier.irrelevant" counters.  The simulator binds this on
        instrumented runs; pass None to detach.
        """
        self._instr = instrumentation

    def judge(self, response: FetchResponse) -> Judgment:
        """Classify one fetch response.

        Non-OK and non-HTML responses are never relevant — there is no
        document in the target language to archive.  A truncated body
        cannot be classified either: its bytes defeat the charset
        machines and its META tag may be gone, so it degrades to
        "irrelevant" before the cache, and garbage never shadows the
        clean judgment of the same content.

        With a cache, the key is the content identity: ``charset`` mode
        classifies nothing but the declared charset, so that string *is*
        the content; ``meta``/``detector`` read the body bytes, so the
        bytes are (a body-less response is not cached, and
        :meth:`_classify` raises for it).  Mode and target language lead
        the key, as one string tag, so one cache can serve a whole
        sweep.  A hit is served in this one frame, with the counters and
        LRU order of :meth:`ClassifierCache.lookup`.
        """
        instr = self._instr
        if instr is not None:
            started = perf_counter()
        if (
            response.status != STATUS_OK
            or response.content_type != HTML_CONTENT_TYPE
            or response.truncated
        ):
            judgment = _IRRELEVANT
        elif self.mode is _ORACLE:
            record = response.record
            if record is None:
                judgment = _IRRELEVANT
            else:
                language = record.true_language
                judgment = Judgment(
                    relevant=language is self.target_language,
                    language=language,
                    charset=response.charset,
                )
        else:
            cache = self.cache
            if cache is None:
                key = None
            elif self.mode is _CHARSET:
                key = (self._key_tag, response.charset)
            elif response.body is not None:
                key = (self._key_tag, response.body)
            else:
                key = None
            if key is None:
                judgment = self._classify(response)
            else:
                entries = cache._entries
                cached = entries.get(key)
                if cached is None:
                    cache.misses += 1
                    judgment = self._classify(response)
                    cache.store(key, judgment)
                else:
                    cache.hits += 1
                    entries.move_to_end(key)
                    judgment = cached
        if instr is not None:
            instr.observe("classifier.judge", perf_counter() - started)
            instr.count("classifier.relevant" if judgment.relevant else "classifier.irrelevant")
        return judgment

    def _classify(self, response: FetchResponse) -> Judgment:
        """The uncached classification path (OK HTML, non-oracle modes)."""
        if self.mode is _CHARSET:
            charset = response.charset
        elif self.mode is _META:
            if response.body is None:
                raise ConfigError(
                    "classifier mode 'meta' requires body synthesis "
                    "(VirtualWebSpace(body_synthesizer=...))"
                )
            charset = parse_meta_charset(response.body)
        else:  # DETECTOR
            if response.body is None:
                raise ConfigError(
                    "classifier mode 'detector' requires body synthesis "
                    "(VirtualWebSpace(body_synthesizer=...))"
                )
            charset = detect_charset(response.body).charset

        language = language_of_charset(charset)
        return Judgment(
            relevant=language is self.target_language,
            language=language,
            charset=charset,
        )
