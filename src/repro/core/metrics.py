"""Evaluation metrics (paper §3.4) and their progress series.

- **Harvest rate** (precision): fraction of crawled pages that are
  relevant.
- **Coverage** (explicit recall): fraction of the dataset's relevant
  pages that have been crawled.  The denominator is known beforehand by
  analysing the crawl log — the luxury the simulator affords.
- **URL queue size**: frontier occupancy, the memory cost Figures 5-7(a)
  plot.

The recorder samples every ``sample_interval`` crawl steps (plus a final
flush), so series stay small and sampling cost is O(1) per page.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field

from repro.errors import CheckpointError


@dataclass(slots=True)
class MetricSeries:
    """Sampled progress curves of one crawl run.

    Parallel lists, one entry per sample: ``pages[i]`` pages had been
    crawled when ``harvest_rate[i]``, ``coverage[i]`` and
    ``queue_size[i]`` were observed.  ``sim_time[i]`` is simulated
    seconds when a timing model was attached, else empty.
    """

    name: str
    pages: list[int] = field(default_factory=list)
    harvest_rate: list[float] = field(default_factory=list)
    coverage: list[float] = field(default_factory=list)
    queue_size: list[int] = field(default_factory=list)
    sim_time: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pages)

    def value_at_pages(self, series: list[float], page_count: int) -> float:
        """The latest sampled value at or before ``page_count`` pages."""
        best = 0.0
        for pages, value in zip(self.pages, series):
            if pages > page_count:
                break
            best = value
        return best

    def harvest_at(self, page_count: int) -> float:
        return self.value_at_pages(self.harvest_rate, page_count)

    def coverage_at(self, page_count: int) -> float:
        return self.value_at_pages(self.coverage, page_count)

    def to_dict(self) -> dict:
        """Plain-dict form for JSON serialisation."""
        return {
            "name": self.name,
            "pages": list(self.pages),
            "harvest_rate": list(self.harvest_rate),
            "coverage": list(self.coverage),
            "queue_size": list(self.queue_size),
            "sim_time": list(self.sim_time),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricSeries":
        return cls(
            name=data["name"],
            pages=list(data["pages"]),
            harvest_rate=list(data["harvest_rate"]),
            coverage=list(data["coverage"]),
            queue_size=list(data["queue_size"]),
            sim_time=list(data.get("sim_time", [])),
        )


@dataclass(frozen=True, slots=True)
class CrawlSummary:
    """End-of-run aggregates of one crawl."""

    strategy: str
    pages_crawled: int
    relevant_crawled: int
    covered_relevant: int
    total_relevant: int
    max_queue_size: int
    simulated_seconds: float | None = None

    @property
    def final_harvest_rate(self) -> float:
        if self.pages_crawled == 0:
            return 0.0
        return self.relevant_crawled / self.pages_crawled

    @property
    def final_coverage(self) -> float:
        if self.total_relevant == 0:
            return 0.0
        return self.covered_relevant / self.total_relevant


class MetricsRecorder:
    """Accumulates per-fetch observations into a :class:`MetricSeries`.

    Harvest counts what the *classifier* judged relevant at crawl time;
    coverage counts membership of the precomputed relevant set.  With the
    charset classifier the two views coincide; with the detector or
    oracle classifiers they can diverge — which is itself a measurement
    (see the classifier ablation).
    """

    def __init__(
        self,
        name: str,
        relevant_urls: AbstractSet[str],
        sample_interval: int = 500,
    ) -> None:
        if sample_interval < 1:
            raise ValueError("sample_interval must be >= 1")
        self._series = MetricSeries(name=name)
        self._relevant_urls = relevant_urls
        #: Membership by page id, when the relevant set offers it (a
        #: ``StoreRelevantSet`` does; a frozenset of URLs does not).
        self._contains_id = getattr(relevant_urls, "contains_id", None)
        self._interval = sample_interval
        self._steps = 0
        self._judged_relevant = 0
        self._covered = 0
        self._max_queue = 0
        self._last_queue = 0
        self._last_time: float | None = None

    @property
    def steps(self) -> int:
        return self._steps

    def record(
        self,
        url: str,
        judged_relevant: bool,
        queue_size: int,
        sim_time: float | None = None,
        page_id: int | None = None,
    ) -> None:
        """Observe one crawled page (``page_id``: the id it was served by, if any)."""
        self._steps += 1
        if judged_relevant:
            self._judged_relevant += 1
        if page_id is None or self._contains_id is None:
            covered = url in self._relevant_urls
        else:
            covered = self._contains_id(page_id)
        if covered:
            self._covered += 1
        self._last_queue = queue_size
        self._last_time = sim_time
        if queue_size > self._max_queue:
            self._max_queue = queue_size
        if self._steps % self._interval == 0:
            self._sample()

    def _sample(self, into: MetricSeries | None = None) -> None:
        series = self._series if into is None else into
        series.pages.append(self._steps)
        series.harvest_rate.append(self._judged_relevant / self._steps)
        total_relevant = len(self._relevant_urls)
        series.coverage.append(self._covered / total_relevant if total_relevant else 0.0)
        series.queue_size.append(self._last_queue)
        if self._last_time is not None:
            series.sim_time.append(self._last_time)

    def snapshot(self) -> dict:
        """Serialisable mid-crawl state (see :mod:`repro.core.checkpoint`).

        The relevant-URL set itself is not serialised — it is a pure
        function of the dataset and is reconstructed on resume — but its
        size is, as a cheap consistency check that the resumed run is
        looking at the same universe.
        """
        return {
            "sample_interval": self._interval,
            "relevant_total": len(self._relevant_urls),
            "steps": self._steps,
            "judged_relevant": self._judged_relevant,
            "covered": self._covered,
            "max_queue": self._max_queue,
            "last_queue": self._last_queue,
            "last_time": self._last_time,
            "series": self._series.to_dict(),
        }

    def restore(self, state: dict) -> None:
        """Load a :meth:`snapshot` into this (fresh) recorder."""
        if state["sample_interval"] != self._interval:
            raise CheckpointError(
                f"checkpointed sample_interval {state['sample_interval']} does not "
                f"match the configured {self._interval}; resume with the same config"
            )
        if state["relevant_total"] != len(self._relevant_urls):
            raise CheckpointError(
                "checkpointed relevant-set size does not match this dataset; "
                "resume against the web space the checkpoint was taken from"
            )
        self._steps = state["steps"]
        self._judged_relevant = state["judged_relevant"]
        self._covered = state["covered"]
        self._max_queue = state["max_queue"]
        self._last_queue = state["last_queue"]
        self._last_time = state["last_time"]
        self._series = MetricSeries.from_dict(state["series"])

    def finish(self, strategy: str) -> tuple[MetricSeries, CrawlSummary]:
        """Flush the final sample and return (series, summary).

        Non-mutating: an off-cadence flush sample goes into a *copy* of
        the live series, never the recorder's own state.  A mid-crawl
        progress report therefore leaves no trace — later samples,
        checkpoints and reports are byte-identical to those of a run
        that was never asked for a progress report.
        """
        series = self._series
        if self._steps and (not series.pages or series.pages[-1] != self._steps):
            series = MetricSeries.from_dict(series.to_dict())
            self._sample(into=series)
        summary = CrawlSummary(
            strategy=strategy,
            pages_crawled=self._steps,
            relevant_crawled=self._judged_relevant,
            covered_relevant=self._covered,
            total_relevant=len(self._relevant_urls),
            max_queue_size=self._max_queue,
            simulated_seconds=self._last_time,
        )
        return series, summary
