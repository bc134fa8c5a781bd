"""The adversarial web space: a lying layer over the virtual web.

:class:`AdversarialWebSpace` wraps a
:class:`~repro.webspace.virtualweb.VirtualWebSpace` (mirroring
:class:`~repro.faults.FaultyWebSpace`) and rewrites traffic according to
an :class:`~repro.adversary.model.AdversaryModel`:

* **Spider traps** — pages on a trap host gain entry links into a
  synthetic ``/cal/…`` subtree; every trap page answers 200-OK with
  ``trap_fanout`` deeper trap children, so the subtree is unbounded and
  only engine policy (URL depth, host budget) can contain it.
* **Redirect chains** — a seeded fraction of known URLs answer 301 into
  a ``/r/<token>/<i>`` hop chain; the content arrives at the end of the
  chain, or never for looping chains.
* **Soft-404s** — a seeded fraction of dead URLs answer 200-OK with
  per-host boilerplate and a few more dead links, instead of an honest
  404.
* **Session-id aliases** — outlinks into a hostile host are rewritten
  with a per-referrer ``?sid=`` alias; fetching an alias serves the
  canonical page's content under the alias URL.
* **Charset mislabelling** — a seeded fraction of charset-declaring
  pages swap their declaration (TIS-620 ⇄ EUC-JP, …) while the body
  bytes keep the true encoding.

Reserved namespaces cannot collide with organic URLs: the generator only
mints ``/`` and ``/p/<n>.html`` paths and never query strings, so
``/cal/``, ``/r/`` and ``?sid=`` are unambiguous adversary territory.

Determinism: every minted URL, chain length and lie is a keyed hash of
stable tokens.  The only mutable state is the fetch index, the
redirect-chain target map (hop tokens are hashes, not inverses) and the
tallies — all snapshot/restored through the checkpoint layer.
"""

from __future__ import annotations

from typing import Mapping

from repro.adversary.model import AdversaryModel
from repro.errors import ConfigError
from repro.urlkit.normalize import url_site_key
from repro.urlkit.parse import parse_url
from repro.webspace.page import HTML_CONTENT_TYPE
from repro.webspace.virtualweb import FetchResponse, VirtualWebSpace

#: Reserved first path segment of synthetic trap-subtree URLs.
TRAP_PREFIX = "/cal/"

#: Reserved first path segment of redirect-chain hop URLs.
HOP_PREFIX = "/r/"

#: Query prefix of a session-id alias.
ALIAS_QUERY = "sid="

#: Fixed size of a soft-404 response: constant so that even body-less
#: runs can fingerprint the boilerplate (status, charset, size) and
#: collapse it.
SOFT404_SIZE = 2048

#: Entry links planted per organic page of a trap host.
TRAP_ENTRY_LINKS = 2


def _soft404_body(host: str) -> bytes:
    """The per-host boilerplate body: identical for every dead URL of a
    host, which is exactly what makes soft-404s fingerprintable."""
    return (
        "<html><head><title>Page not found</title></head><body>"
        f"<h1>Sorry!</h1><p>The page you requested on {host} has moved or "
        "no longer exists. Please visit our homepage to find what you are "
        "looking for.</p></body></html>"
    ).encode("ascii")


def _trap_body(url: str, outlinks: tuple[str, ...]) -> bytes:
    anchors = "".join(f'<a href="{link}">archive</a> ' for link in outlinks)
    return (
        f"<html><head><title>Calendar</title></head><body><h1>{url}</h1>"
        f"{anchors}</body></html>"
    ).encode("ascii")


def _site_root(url: str) -> str:
    """``http://host`` of an absolute URL (cheap, no full parse)."""
    end = url.find("/", url.find("://") + 3)
    return url if end < 0 else url[:end]


class AdversarialWebSpace:
    """A :class:`VirtualWebSpace` with an :class:`AdversaryModel` in front.

    Drop-in for every place the engine touches a web space (``fetch``,
    ``crawl_log``, ``fetch_count``, ``in``).  With an empty profile the
    wrapper forwards every fetch untouched — byte-identity with the bare
    web space is pinned by the golden differential and the property
    suite.

    ``journal`` (opt-in) records every adversarial intervention as
    ``(fetch_index, url, scenario)`` tuples for the determinism tests.
    """

    def __init__(
        self,
        web: VirtualWebSpace,
        model: AdversaryModel,
        record_journal: bool = False,
    ) -> None:
        self._web = web
        self.model = model
        self.fetch_index = 0
        self._empty = model.profile.is_empty
        #: hop token -> the URL whose content the chain eventually serves.
        self._redirect_targets: dict[str, str] = {}
        #: This run's interventions by kind (observability only).
        self.injected: dict[str, int] = {
            "trap_pages": 0,
            "trap_links": 0,
            "redirects": 0,
            "soft404": 0,
            "alias": 0,
            "mislabel": 0,
        }
        self.journal: list[tuple[int, str, str]] | None = [] if record_journal else None

    @property
    def web(self) -> VirtualWebSpace:
        return self._web

    @property
    def crawl_log(self):
        return self._web.crawl_log

    @property
    def fetch_count(self) -> int:
        return self._web.fetch_count

    @property
    def synthesizes_bodies(self) -> bool:
        return getattr(self._web, "synthesizes_bodies", False)

    def __contains__(self, url: str) -> bool:
        return url in self._web

    # -- fetch ---------------------------------------------------------------

    def fetch(self, url: str, uid: int | None = None) -> FetchResponse:
        """Fetch through the adversary; never raises for adversarial URLs.

        ``uid`` (a url-id hint) follows ``url`` to the wrapped web only
        where the adversary serves that same URL's organic page."""
        self.fetch_index += 1
        if self._empty:
            return self._web.fetch(url, uid)
        split = parse_url(url)
        host = split.site_key
        path = split.path
        if path.startswith(HOP_PREFIX):
            return self._fetch_hop(url, split.scheme, host, path)
        if split.query.startswith(ALIAS_QUERY) and self.model.is_alias_host(host):
            return self._fetch_alias(url, split)
        if path.startswith(TRAP_PREFIX) and self.model.is_trap_host(host):
            return self._fetch_trap(url)
        if self.model.redirects(url) and url in self._web:
            return self._start_chain(url, host)
        return self._serve(url, host, uid)

    def _resolve(self, url: str, host: str) -> FetchResponse:
        """Serve ``url`` without re-entering chain/alias dispatch — used
        when a chain or alias bottoms out on a canonical URL (which may
        itself be a trap page)."""
        path_start = url.find("/", url.find("://") + 3)
        path = url[path_start:] if path_start >= 0 else "/"
        if path.startswith(TRAP_PREFIX) and self.model.is_trap_host(host):
            return self._fetch_trap(url)
        return self._serve(url, host)

    # -- redirect chains -----------------------------------------------------

    def _hop_url(self, origin: str, token: str, hop: int) -> str:
        return f"{_site_root(origin)}{HOP_PREFIX}{token}/{hop}"

    def _start_chain(self, url: str, host: str) -> FetchResponse:
        token = self.model.token_hex("rchain", url, 12)
        self._redirect_targets[token] = url
        self.injected["redirects"] += 1
        self._journal(url, "redirect")
        return FetchResponse(
            url=url,
            status=301,
            content_type=HTML_CONTENT_TYPE,
            charset=None,
            outlinks=(),
            size=0,
            redirect_to=self._hop_url(url, token, 1),
            adversary="redirect",
        )

    def _fetch_hop(self, url: str, scheme: str, host: str, path: str) -> FetchResponse:
        segments = path.split("/")  # ["", "r", token, hop]
        token = segments[2] if len(segments) > 2 else ""
        origin = self._redirect_targets.get(token)
        if origin is None or len(segments) != 4 or not segments[3].isdigit():
            # Not a chain this run minted (or a mangled hop): a dead URL.
            return self._web.fetch(url)
        hop = int(segments[3])
        if hop < self.model.profile.redirect_hops:
            target = self._hop_url(origin, token, hop + 1)
        elif self.model.chain_loops(token):
            target = self._hop_url(origin, token, 1)
        else:
            # End of the chain: the content finally arrives, served under
            # the canonical URL (what a live crawler's final GET sees).
            return self._resolve(origin, url_site_key(origin))
        return FetchResponse(
            url=url,
            status=301,
            content_type=HTML_CONTENT_TYPE,
            charset=None,
            outlinks=(),
            size=0,
            redirect_to=target,
            adversary="redirect",
        )

    # -- aliases -------------------------------------------------------------

    def _fetch_alias(self, url: str, split) -> FetchResponse:
        canonical = url.partition("?")[0]
        response = self._resolve(canonical, split.site_key)
        self.injected["alias"] += 1
        self._journal(url, "alias")
        # Same content, different URL — the defining property of a
        # session alias.  The record stays the canonical page's, which is
        # what content fingerprinting keys on.
        return response._replace(url=url, adversary="alias", page_id=None)

    # -- spider traps --------------------------------------------------------

    def _fetch_trap(self, url: str) -> FetchResponse:
        fanout = self.model.profile.trap_fanout
        base = url.rstrip("/")
        children = tuple(
            f"{base}/{self.model.token_hex('trapchild', f'{url}#{k}')}" for k in range(fanout)
        )
        self.injected["trap_pages"] += 1
        self.injected["trap_links"] += fanout
        self._journal(url, "trap")
        body = _trap_body(url, children) if self.synthesizes_bodies else None
        return FetchResponse(
            url=url,
            status=200,
            content_type=HTML_CONTENT_TYPE,
            charset=None,
            outlinks=children,
            size=self.model.trap_size(url),
            body=body,
            adversary="trap",
        )

    def _trap_entries(self, url: str) -> tuple[str, ...]:
        root = _site_root(url)
        count = min(TRAP_ENTRY_LINKS, self.model.profile.trap_fanout)
        return tuple(
            f"{root}{TRAP_PREFIX}{self.model.token_hex('traproot', f'{url}#{k}')}"
            for k in range(count)
        )

    # -- soft 404s -----------------------------------------------------------

    def _soft404(self, url: str, host: str) -> FetchResponse:
        fanout = self.model.profile.soft404_fanout
        base = url.rstrip("/")
        outlinks = tuple(
            f"{base}/{self.model.token_hex('soft404link', f'{url}#{k}')}.html"
            for k in range(fanout)
        )
        self.injected["soft404"] += 1
        self._journal(url, "soft404")
        body = _soft404_body(host) if self.synthesizes_bodies else None
        return FetchResponse(
            url=url,
            status=200,
            content_type=HTML_CONTENT_TYPE,
            charset=None,
            outlinks=outlinks,
            size=SOFT404_SIZE,
            body=body,
            adversary="soft404",
        )

    # -- organic pages -------------------------------------------------------

    def _serve(self, url: str, host: str, uid: int | None = None) -> FetchResponse:
        """The (possibly rewritten) organic response for ``url``."""
        response = self._web.fetch(url, uid)
        if not (response.ok and response.is_html):
            if response.record is None and self.model.soft404(url):
                return self._soft404(url, host)
            return response
        model = self.model
        outlinks = response.outlinks
        changed: dict[str, object] = {}
        if model.is_trap_host(host):
            entries = self._trap_entries(url)
            self.injected["trap_links"] += len(entries)
            self._journal(url, "trap-entry")
            changed["outlinks"] = outlinks + entries
            outlinks = changed["outlinks"]  # type: ignore[assignment]
        if outlinks and (model.profile.alias_host_rate or model.profile.alias_hosts):
            rewritten = self._alias_links(url, outlinks)
            if rewritten is not None:
                changed["outlinks"] = rewritten
        if response.charset is not None and model.mislabels(url):
            lie = model.mislabel_for(response.charset)
            if lie is not None:
                changed["charset"] = lie
                if response.body is not None:
                    changed["body"] = response.body.replace(
                        f"charset={response.charset}".encode("ascii"),
                        f"charset={lie}".encode("ascii"),
                    )
                self.injected["mislabel"] += 1
                self._journal(url, "mislabel")
                changed["adversary"] = "mislabel"
        if not changed:
            return response
        if "outlinks" in changed:
            changed["outlink_ids"] = None  # no longer aligned with the links
        return response._replace(**changed)

    def _alias_links(self, referrer: str, outlinks: tuple[str, ...]) -> tuple[str, ...] | None:
        """Rewrite hostile-host links with per-referrer session aliases."""
        model = self.model
        rewritten = None
        for index, link in enumerate(outlinks):
            if "?" in link or not model.is_alias_host(url_site_key(link)):
                continue
            if rewritten is None:
                rewritten = list(outlinks)
            sid = model.token_hex("alias", f"{referrer}->{link}", 12)
            rewritten[index] = f"{link}?{ALIAS_QUERY}{sid}"
        return None if rewritten is None else tuple(rewritten)

    def _journal(self, url: str, scenario: str) -> None:
        if self.journal is not None:
            self.journal.append((self.fetch_index, url, scenario))

    # -- checkpoint support --------------------------------------------------

    def snapshot(self) -> dict:
        """Adversary state: enough to replay the identical lying web."""
        return {
            "seed": self.model.seed,
            "fetch_index": self.fetch_index,
            "redirects": dict(self._redirect_targets),
            "injected": dict(self.injected),
        }

    def restore(self, state: Mapping) -> None:
        if state.get("seed") != self.model.seed:
            raise ConfigError(
                f"checkpoint adversary seed {state.get('seed')!r} does not match "
                f"the configured model seed {self.model.seed!r}"
            )
        self.fetch_index = state["fetch_index"]
        self._redirect_targets = dict(state["redirects"])
        self.injected.update(state.get("injected", {}))
