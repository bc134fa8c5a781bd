"""Extension E3: per-server queues (paper §4's other omitted detail).

"The first version of the crawling simulator ... has been implemented
with the omission of details such as elapsed time and per-server queue
typically found in a real-world web crawler."  This benchmark adds the
per-server queue and measures what the polite rotation *costs*: request
burstiness against individual sites (mean consecutive same-site run)
collapses to ~1 while coverage is unchanged and the harvest rate moves
only modestly.
"""

from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.politeness import HostQueues, mean_same_site_run
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import BreadthFirstStrategy, SimpleStrategy
from repro.experiments.report import render_table

from conftest import emit


def _crawl(dataset, strategy, frontier=None):
    urls = []
    result = CrawlSession(
        CrawlRequest(
            strategy=strategy,
            web=dataset.web(),
            classifier=Classifier(Language.THAI),
            seeds=tuple(dataset.seed_urls),
            relevant_urls=dataset.relevant_urls(),
        ),
        SessionConfig(
            sample_interval=1000,
            frontier=frontier,
            on_fetch=lambda event: urls.append(event.url),
        ),
    ).run()
    return result, urls


def test_ext_per_server_queue(benchmark, thai_bench, results_dir):
    def compare():
        rows = []
        for factory in (BreadthFirstStrategy, lambda: SimpleStrategy(mode="hard")):
            plain_result, plain_urls = _crawl(thai_bench, factory())
            polite_result, polite_urls = _crawl(thai_bench, factory(), HostQueues())
            rows.append(
                {
                    "strategy": factory().name,
                    "mean_burst_plain": round(mean_same_site_run(plain_urls), 2),
                    "mean_burst_polite": round(mean_same_site_run(polite_urls), 2),
                    "coverage_plain": round(plain_result.final_coverage, 3),
                    "coverage_polite": round(polite_result.final_coverage, 3),
                    "harvest_plain": round(plain_result.final_harvest_rate, 3),
                    "harvest_polite": round(polite_result.final_harvest_rate, 3),
                }
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)

    emit(
        results_dir,
        "ext_politeness",
        render_table(rows, title="Extension E3: per-server queue (polite rotation)"),
    )

    for row in rows:
        # Polite rotation interleaves sites: mean same-site run ≈ 1.
        assert row["mean_burst_polite"] < row["mean_burst_plain"]
        assert row["mean_burst_polite"] < 1.5
        # Coverage is order-insensitive for these strategies' kept sets
        # (breadth-first exactly; hard-focused may shift slightly since
        # its discard rule is path-dependent).
        assert abs(row["coverage_polite"] - row["coverage_plain"]) < 0.1
