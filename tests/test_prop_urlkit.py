"""Property-based tests for the URL substrate."""

import string

from hypothesis import given, strategies as st

from repro.errors import UrlError
from repro.urlkit import normalize as normalize_module
from repro.urlkit.normalize import intern_url, intern_urls, normalize_url
from repro.urlkit.parse import parse_url

host_labels = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
hosts = st.lists(host_labels, min_size=1, max_size=3).map(".".join)
path_segments = st.lists(
    st.text(alphabet=string.ascii_letters + string.digits + "._-", min_size=1, max_size=8),
    min_size=0,
    max_size=5,
)
queries = st.one_of(
    st.just(""),
    st.text(alphabet=string.ascii_lowercase + "=&", min_size=1, max_size=12),
)


@st.composite
def urls(draw):
    scheme = draw(st.sampled_from(["http", "https"]))
    host = draw(hosts)
    port = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=65535)))
    segments = draw(path_segments)
    query = draw(queries)
    url = f"{scheme}://{host}"
    if port is not None:
        url += f":{port}"
    url += "/" + "/".join(segments)
    if query:
        url += f"?{query}"
    return url


class TestNormalizationProperties:
    @given(urls())
    def test_idempotent(self, url):
        once = normalize_url(url)
        assert normalize_url(once) == once

    @given(urls())
    def test_output_always_parseable(self, url):
        parse_url(normalize_url(url))

    @given(urls())
    def test_host_preserved(self, url):
        assert parse_url(normalize_url(url)).host == parse_url(url).host

    @given(urls())
    def test_no_dot_segments_survive(self, url):
        path = parse_url(normalize_url(url)).path
        segments = path.split("/")
        assert "." not in segments
        assert ".." not in segments

    @given(urls(), st.text(alphabet=string.ascii_letters, max_size=8))
    def test_fragment_never_matters(self, url, fragment):
        assert normalize_url(url + "#" + fragment) == normalize_url(url)

    @given(urls())
    def test_case_of_scheme_host_irrelevant(self, url):
        scheme, rest = url.split("://", 1)
        assert normalize_url(scheme.upper() + "://" + rest) == normalize_url(url)


class TestParseTotality:
    @given(st.text(max_size=40))
    def test_parse_never_crashes_unexpectedly(self, text):
        """parse_url either returns a SplitUrl or raises UrlError —
        nothing else escapes."""
        try:
            split = parse_url(text)
        except UrlError:
            return
        assert split.unsplit()

    @given(urls())
    def test_round_trip_preserves_identity(self, url):
        split = parse_url(url)
        assert parse_url(split.unsplit()) == parse_url(parse_url(split.unsplit()).unsplit())


#: A small pool of URL texts: batches repeat them, so hits, misses and
#: repeats within one batch all occur.
_INTERN_POOL = [f"http://h{n}.example/p" for n in range(12)]


def _fresh(text: str) -> str:
    """An equal string that is a new object (not the pool's, not interned)."""
    return "".join([text[:1], text[1:]])


class TestInternUrls:
    """``intern_urls`` is ``map(intern_url)`` in C: the same objects back
    and the same table left behind — also when the batch crosses the
    table's cap, where ``intern_url`` clears a generation mid-batch."""

    @given(
        before=st.lists(st.sampled_from(_INTERN_POOL), max_size=10),
        batch=st.lists(st.sampled_from(_INTERN_POOL), max_size=16),
        cap=st.integers(min_value=1, max_value=20),
    )
    def test_same_objects_as_map_intern_url(self, before, batch, cap):
        before = [_fresh(url) for url in before]
        batch = [_fresh(url) for url in batch]
        saved_cap, saved_table = normalize_module._INTERN_MAX, dict(normalize_module._intern_table)
        try:
            normalize_module._INTERN_MAX = cap
            results = []
            for intern in (intern_urls, lambda urls: list(map(intern_url, urls))):
                normalize_module._intern_table.clear()
                for url in before:
                    intern_url(url)
                out = intern(batch)
                table = {key: id(value) for key, value in normalize_module._intern_table.items()}
                results.append(([id(url) for url in out], table))
                assert out == batch
        finally:
            normalize_module._INTERN_MAX = saved_cap
            normalize_module._intern_table.clear()
            normalize_module._intern_table.update(saved_table)
        assert results[0] == results[1]
