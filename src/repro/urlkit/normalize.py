"""URL normalisation.

Two URLs denote the same page iff they normalise to the same string, so
this function defines page identity for the whole system: the frontier
deduplicates on it, the LinkDB keys on it, and the generator emits URLs
already in normal form (a property the tests verify).

The normalisations applied are the standard semantics-preserving ones:

- scheme and host are lowercased,
- a default port (80 for http, 443 for https) is dropped,
- dot-segments (``.`` and ``..``) in the path are resolved,
- duplicate slashes in the path are collapsed,
- an empty path becomes ``/``,
- the fragment is removed,
- an empty query (trailing ``?``) is dropped.

Because normalised URLs *are* page identities, they are also interned
(:func:`intern_url`): every equal URL string in the system shares one
object, so the hash-table probes that dominate the crawl loop —
``scheduled``-set membership, crawl-log and frontier dict lookups —
short-circuit on pointer equality instead of comparing characters.
:func:`normalize_url` additionally memoises its input→output mapping in
a bounded cache, since crawl graphs present the same href strings many
times.

Every table in this module is **bounded** and generation-cleared: when a
table reaches its cap it is simply reset and repopulated by subsequent
traffic.  The caps (:data:`_INTERN_MAX`, :data:`_MEMO_MAX`) are read at
call time, so a million-page out-of-core crawl holds at most a bounded
working set of URL strings regardless of web size — this is what lets
the store-backed crawls keep a flat resident footprint.  (The earlier
implementation used :func:`sys.intern`, whose table only sheds entries
when the *caller* drops every reference; a dict generation is droppable
unilaterally.)  Clearing costs only the pointer fast path and memo hits
for one warm-up; equality stays correct because interning is an
optimisation, never a semantic.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.urlkit.parse import SplitUrl, parse_url

#: Upper bound of the normalisation and site memos; past it the map is
#: simply reset (the working set of distinct hrefs in one simulation is
#: far smaller, so the reset is a safety valve, not a working regime).
_MEMO_MAX = 1 << 18

#: Upper bound of the intern table.  Sized to hold every URL of the
#: in-memory experiment scales; out-of-core crawls cycle generations.
_INTERN_MAX = 1 << 18

_memo: dict[str, str] = {}

_intern_table: dict[str, str] = {}


def intern_url(url: str) -> str:
    """The canonical *object* for an already-normalised URL string.

    Two URLs denote the same page iff they normalise to the same string,
    and interning makes that comparison a pointer check.  Backed by a
    bounded generation-cleared table — **not** :func:`sys.intern`, whose
    entries pin the only copy of every URL a crawl ever touched for as
    long as anything references it; the table here can be dropped
    wholesale between generations, so URL identity never costs more than
    a bounded working set.
    """
    canonical = _intern_table.get(url)
    if canonical is not None:
        return canonical
    if len(_intern_table) >= _INTERN_MAX:
        _intern_table.clear()
    _intern_table[url] = url
    return url


def intern_urls(urls: Sequence[str]) -> list[str]:
    """``list(map(intern_url, urls))`` at C speed: the same objects back,
    and the table left in the same state.

    A generation clear happens on a *miss* while the table is full, so a
    batch that cannot fill the table whatever it misses is one
    ``setdefault`` per URL with no Python frame; only a batch that might
    cross the cap takes the per-URL route, which clears where
    :func:`intern_url` would.
    """
    if len(_intern_table) + len(urls) > _INTERN_MAX:
        return list(map(intern_url, urls))
    return list(map(_intern_table.setdefault, urls, urls))


def url_cache_sizes() -> dict[str, int]:
    """Current entry counts of every URL table (observability/tests)."""
    return {
        "intern": len(_intern_table),
        "normalize": len(_memo),
        "site": len(_site_memo),
    }


def clear_url_caches() -> None:
    """Drop every URL table (tests, and between unrelated crawls)."""
    _intern_table.clear()
    _memo.clear()
    _site_memo.clear()


def _resolve_dot_segments(path: str) -> str:
    """Resolve ``.`` and ``..`` segments per RFC 3986 §5.2.4."""
    output: list[str] = []
    for segment in path.split("/"):
        if segment == "." or segment == "":
            continue
        if segment == "..":
            if output:
                output.pop()
            continue
        output.append(segment)
    resolved = "/" + "/".join(output)
    # Preserve a trailing slash: /a/b/ and /a/b are different resources.
    if path.endswith(("/", "/.", "/..")) and resolved != "/":
        resolved += "/"
    return resolved


def normalize_split(split: SplitUrl) -> SplitUrl:
    """Normalise an already-parsed URL."""
    port = split.port
    if port is not None and port == split.effective_port and port in (80, 443):
        # parse_url gave us an explicit default port; drop it.
        if (split.scheme, port) in (("http", 80), ("https", 443)):
            port = None
    path = _resolve_dot_segments(split.path)
    return SplitUrl(scheme=split.scheme, host=split.host, port=port, path=path, query=split.query)


def normalize_url(url: str) -> str:
    """Return the canonical, interned form of ``url``.

    Memoised: repeated normalisation of the same href string (the common
    case when replaying a crawl graph) is one dict probe.  Only
    successful normalisations are cached — parse errors always re-raise.

    Raises:
        UrlError: if the URL cannot be parsed at all.
    """
    cached = _memo.get(url)
    if cached is not None:
        return cached
    normalized = intern_url(normalize_split(parse_url(url)).unsplit())
    if len(_memo) >= _MEMO_MAX:
        _memo.clear()
    _memo[url] = normalized
    return normalized


def url_host(url: str) -> str:
    """The lowercased host of ``url`` (convenience accessor)."""
    return parse_url(url).host


#: Memo for :func:`url_site_key` — the timing model, politeness queues,
#: fault model and resilient crawl loop all ask for a URL's site on the
#: per-fetch path, and URLs are interned so probes are pointer-fast.
_site_memo: dict[str, str] = {}


def url_site_key(url: str) -> str:
    """The ``host:port`` site key of ``url`` (see :attr:`SplitUrl.site_key`)."""
    cached = _site_memo.get(url)
    if cached is not None:
        return cached
    site = intern_url(parse_url(url).site_key)
    if len(_site_memo) >= _MEMO_MAX:
        _site_memo.clear()
    _site_memo[url] = site
    return site
