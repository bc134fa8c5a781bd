"""Property-based tests: the classifier cache is semantically invisible.

The central invariant of :class:`repro.core.classifier.ClassifierCache`:
a cached classifier and an uncached classifier agree on every input —
including repeats, which is exactly when the cache answers instead of
the detector.  Inputs are drawn both from the charset text generators
(realistic encoded bodies, per :mod:`tests.test_prop_charset`) and from
arbitrary binary, so the equivalence holds on well-formed and garbage
bytes alike.
"""

from hypothesis import given, settings, strategies as st

from repro.charset.languages import Language
from repro.core.classifier import Classifier, ClassifierCache, ClassifierMode
from repro.webspace.virtualweb import FetchResponse

from test_prop_charset import text_of

seeds = st.integers(min_value=0, max_value=2**31 - 1)
sentence_counts = st.integers(min_value=1, max_value=6)
target_languages = st.sampled_from([Language.THAI, Language.JAPANESE])

#: (text flavor, codec) pairs covering both target languages, a
#: non-target language, and multi-byte/single-byte/ASCII encodings.
encoded_flavors = st.sampled_from(
    [
        ("thai", "tis_620"),
        ("japanese", "euc_jp"),
        ("japanese", "shift_jis"),
        ("japanese", "utf-8"),
        ("english", "ascii"),
    ]
)


def response_with_body(body: bytes) -> FetchResponse:
    return FetchResponse(
        url="http://h1.example/p.html",
        status=200,
        content_type="text/html",
        charset=None,
        outlinks=(),
        size=len(body),
        body=body,
    )


def assert_cached_equals_uncached(
    body: bytes, target: Language, mode: ClassifierMode
) -> None:
    cache = ClassifierCache()
    cached = Classifier(target, mode=mode, cache=cache)
    uncached = Classifier(target, mode=mode)
    response = response_with_body(body)
    expected = uncached.judge(response)
    # Judge twice: the first call populates, the second must answer from
    # cache — both must equal the uncached verdict.
    assert cached.judge(response) == expected
    assert cached.judge(response) == expected
    assert cache.hits >= 1


class TestCachedEqualsUncached:
    @given(encoded_flavors, seeds, sentence_counts, target_languages)
    @settings(max_examples=30, deadline=None)
    def test_detector_mode_on_generated_text(self, flavor_codec, seed, sentences, target):
        flavor, codec = flavor_codec
        body = text_of(flavor, seed, sentences).encode(codec)
        assert_cached_equals_uncached(body, target, ClassifierMode.DETECTOR)

    @given(st.binary(max_size=300), target_languages)
    @settings(max_examples=60, deadline=None)
    def test_detector_mode_on_arbitrary_bytes(self, body, target):
        assert_cached_equals_uncached(body, target, ClassifierMode.DETECTOR)

    @given(st.binary(max_size=300), target_languages)
    @settings(max_examples=40, deadline=None)
    def test_meta_mode_on_arbitrary_bytes(self, body, target):
        assert_cached_equals_uncached(body, target, ClassifierMode.META)

    @given(
        st.sampled_from(["TIS-620", "EUC-JP", "Shift_JIS", "utf-8", "windows-874", None]),
        target_languages,
    )
    @settings(max_examples=30, deadline=None)
    def test_charset_mode_on_declared_charsets(self, charset, target):
        cache = ClassifierCache()
        cached = Classifier(target, cache=cache)
        uncached = Classifier(target)
        response = FetchResponse(
            url="http://h1.example/p.html",
            status=200,
            content_type="text/html",
            charset=charset,
            outlinks=(),
            size=0,
        )
        expected = uncached.judge(response)
        assert cached.judge(response) == expected
        assert cached.judge(response) == expected
        assert cache.hits == 1 and cache.misses == 1

    @given(st.binary(max_size=200), st.sampled_from(["TIS-620", "EUC-JP", "utf-8", None]))
    @settings(max_examples=30, deadline=None)
    def test_shared_cache_keeps_languages_and_modes_apart(self, body, charset):
        """One cache serving several classifiers must never cross wires:
        the key carries (mode, target language), so a THAI verdict can
        never be replayed to a JAPANESE classifier or across modes — on
        the first judgment or on the repeat the cache answers."""
        cache = ClassifierCache()
        response = response_with_body(body)._replace(charset=charset)
        modes = (ClassifierMode.CHARSET, ClassifierMode.META, ClassifierMode.DETECTOR)
        for _ in range(2):
            for mode in modes:
                for language in (Language.THAI, Language.JAPANESE):
                    expected = Classifier(language, mode=mode).judge(response)
                    assert Classifier(language, mode=mode, cache=cache).judge(response) == expected
        assert len(cache) == cache.misses == cache.hits == 6


class TestEvictionSoundness:
    @given(st.lists(st.binary(min_size=1, max_size=30), min_size=1, max_size=30), seeds)
    @settings(max_examples=30, deadline=None)
    def test_tiny_cache_still_agrees_under_churn(self, bodies, seed):
        """Even a 2-entry cache thrashing through evictions stays exact."""
        cache = ClassifierCache(max_entries=2)
        cached = Classifier(Language.THAI, mode=ClassifierMode.DETECTOR, cache=cache)
        uncached = Classifier(Language.THAI, mode=ClassifierMode.DETECTOR)
        # Revisit in a shuffled order so lookups hit mid-LRU entries.
        order = list(bodies) + list(reversed(bodies))
        for body in order:
            response = response_with_body(body)
            assert cached.judge(response) == uncached.judge(response)
        assert len(cache) <= 2
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == len(order)

    def test_eviction_order_is_least_recently_used_first(self):
        """Order, not timing: lookups refresh, stores of a held key do
        not evict, and the victim is always the least recently used."""
        cache = ClassifierCache(max_entries=3)
        verdict = Classifier(Language.THAI).judge(response_with_body(b""))
        for key in "abc":
            cache.store(key, verdict)
        assert cache.lookup("a") is verdict  # a becomes most recent: b c a
        cache.store("c", verdict)  # held key: no eviction, order kept
        cache.store("d", verdict)  # evicts b: c a d
        assert cache.lookup("b") is None
        assert cache.lookup("c") is verdict  # a d c
        cache.store("e", verdict)  # evicts a: d c e
        cache.store("f", verdict)  # evicts d: c e f
        assert [key for key in "abcdef" if cache.lookup(key) is not None] == ["c", "e", "f"]
        assert cache.evictions == 3 and len(cache) == 3


def test_golden_soft_focused_cache_counters():
    """The charset cache answers the golden soft-focused crawl exactly as
    it always has: 11 distinct (mode, language, charset) keys, 651 hits
    over the 662 OK HTML pages of the first 1 100 fetches."""
    from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
    from repro.experiments.golden import GOLDEN_MAX_PAGES, golden_dataset

    dataset = golden_dataset()
    cache = ClassifierCache()
    request = CrawlRequest(
        strategy="soft-focused",
        dataset=dataset,
        classifier=Classifier(dataset.target_language, cache=cache),
    )
    CrawlSession(request, SessionConfig(max_pages=GOLDEN_MAX_PAGES)).run()
    assert cache.stats() == {"hits": 651, "misses": 11, "evictions": 0, "size": 11}


#: Charset-mode responses: OK or not, HTML or not, truncated or not,
#: under a handful of declared charsets.
charset_responses = st.lists(
    st.builds(
        lambda status, content_type, charset, truncated: FetchResponse(
            url="http://h1.example/p.html", status=status, content_type=content_type,
            charset=charset, outlinks=(), size=1, truncated=truncated,
        ),
        st.sampled_from([200, 200, 200, 404]),
        st.sampled_from(["text/html", "text/html", "image/png"]),
        st.sampled_from(["TIS-620", "windows-874", "EUC-JP", "ISO-8859-1", None]),
        st.booleans(),
    ),
    max_size=40,
)


def looked_up(classifier: Classifier, cache: ClassifierCache, response: FetchResponse):
    """A charset judgment through the cache's own ``lookup`` and ``store``."""
    if response.status != 200 or response.content_type != "text/html" or response.truncated:
        return Classifier(Language.THAI).judge(response)
    key = (classifier._key_tag, response.charset)
    judgment = cache.lookup(key)
    if judgment is None:
        judgment = classifier._classify(response)
        cache.store(key, judgment)
    return judgment


@given(charset_responses, st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None)
def test_one_frame_charset_judgment_keeps_the_cache_exactly(responses, size):
    """``judge`` serves a cached charset judgment in its own frame; it
    must answer, count hits, misses and evictions, and order the LRU
    exactly as ``ClassifierCache.lookup`` and ``store`` do."""
    classifier = Classifier(Language.THAI, cache=ClassifierCache(max_entries=size))
    reference = ClassifierCache(max_entries=size)
    for response in responses:
        assert classifier.judge(response) == looked_up(classifier, reference, response)
        assert classifier.cache.stats() == reference.stats()
        assert list(classifier.cache._entries) == list(reference._entries)
