"""The host (web site) model.

Sites are the unit of language in the generator: each host has a dominant
language, pages live contiguously on their host, and host sizes follow a
heavy-tailed distribution so a few portals own a large share of the
universe — the structure the paper's "language locality" observation
comes from (Thai pages are linked by other Thai pages because they share
sites and neighbourhoods).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.charset.languages import Language
from repro.errors import UnknownPageError
from repro.graphgen.config import DatasetProfile

#: TLD flavors per dominant language, purely cosmetic (the classifier
#: never looks at URLs; readable hosts make debugging traces pleasant).
_TLDS = {
    Language.THAI: (".co.th", ".ac.th", ".or.th", ".in.th"),
    Language.JAPANESE: (".co.jp", ".ne.jp", ".ac.jp", ".or.jp"),
    Language.KOREAN: (".co.kr", ".ne.kr", ".ac.kr", ".or.kr"),
    Language.OTHER: (".com", ".net", ".org", ".info"),
    Language.UNKNOWN: (".example",),
}

#: Pareto shape for host sizes; ~1.1 gives a few very large portals.
_HOST_SIZE_ALPHA = 1.1


@dataclass(frozen=True, slots=True)
class Host:
    """One site: a contiguous block of page ids with a dominant language."""

    index: int
    name: str
    group_index: int
    language: Language
    first_page: int
    n_pages: int

    @property
    def page_slice(self) -> slice:
        return slice(self.first_page, self.first_page + self.n_pages)

    def page_url(self, offset: int) -> str:
        """URL of the host's ``offset``-th page (offset 0 is the root)."""
        if not 0 <= offset < self.n_pages:
            raise UnknownPageError(f"{self.name} page offset {offset} out of range")
        if offset == 0:
            return f"http://{self.name}/"
        return f"http://{self.name}/p/{offset}.html"

    def page_urls(self) -> list[str]:
        """Every URL of the host in offset order: ``page_url`` at each offset."""
        root = f"http://{self.name}/"
        return [root, *[f"{root}p/{offset}.html" for offset in range(1, self.n_pages)]]


def build_hosts(profile: DatasetProfile, rng: np.random.Generator) -> list[Host]:
    """Create the host table: names, languages and page allocations.

    Page counts are proportional to Pareto-distributed host weights, with
    every host getting at least one page and the counts summing exactly
    to ``profile.n_pages``.
    """
    n_hosts = profile.n_hosts

    group_weights = np.array([group.weight for group in profile.groups], dtype=np.float64)
    group_weights /= group_weights.sum()
    group_of_host = rng.choice(len(profile.groups), size=n_hosts, p=group_weights)

    raw_sizes = rng.pareto(_HOST_SIZE_ALPHA, size=n_hosts) + 1.0
    # Proportional allocation with a floor of one page per host.
    spare = profile.n_pages - n_hosts
    shares = raw_sizes / raw_sizes.sum() * spare
    counts = np.floor(shares).astype(np.int64) + 1
    # Distribute the rounding remainder by largest fractional part.
    remainder = profile.n_pages - int(counts.sum())
    if remainder > 0:
        order = np.argsort(shares - np.floor(shares))[::-1]
        counts[order[:remainder]] += 1

    hosts: list[Host] = []
    first_page = 0
    for index in range(n_hosts):
        group_index = int(group_of_host[index])
        language = profile.groups[group_index].language
        tlds = _TLDS[language]
        tld = tlds[int(rng.integers(0, len(tlds)))]
        hosts.append(
            Host(
                index=index,
                name=f"h{index:05d}{tld}",
                group_index=group_index,
                language=language,
                first_page=first_page,
                n_pages=int(counts[index]),
            )
        )
        first_page += int(counts[index])
    return hosts
