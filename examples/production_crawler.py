"""Simulating a production-grade polite crawler with bounded memory.

Run:  python examples/production_crawler.py

The paper's simulator deliberately omits "details such as elapsed time
and per-server queue typically found in a real-world web crawler" (§4)
— and its §5.2.1 warns that the soft-focused queue would exhaust
physical memory at Web scale.  This example composes the three
extensions that close those gaps around one soft-focused crawl:

- ``frontier=SpillConfig(...)`` — bounded resident URL queue, cold tail
  on disk; it pops what the in-memory queue pops, so the crawl is the
  same one and checkpoints like it;
- ``frontier=HostQueues()`` — per-server round-robin, no bursts;
- :class:`TimingModel` — transfer delays + per-site access intervals.

The punchline: full archive coverage with a ~500-URL resident queue, a
mean same-site burst of ~1, and a realistic simulated wall-clock.
"""

from repro import (
    SimpleStrategy,
    CrawlRequest,
    CrawlSession,
    SessionConfig,
    TimingModel,
    build_dataset,
    thai_profile,
)
from repro.core.politeness import HostQueues, mean_same_site_run
from repro.core.spilling import SpillConfig

MEMORY_LIMIT = 500


def crawl(dataset, frontier=None, timing=None):
    """One soft-focused crawl on the queue ``frontier`` names; returns the
    report, the fetch order and the queue it ran on."""
    urls = []
    session = CrawlSession(
        CrawlRequest(dataset=dataset, strategy=SimpleStrategy(mode="soft")),
        SessionConfig(
            sample_interval=500,
            frontier=frontier,
            timing=timing,
            on_fetch=lambda event: urls.append(event.url),
        ),
    )
    session.step()
    result, queue = session.report(), session.frontier
    session.close()
    return result, urls, queue


def main() -> None:
    print("Building the Thai dataset (1/8 scale)...\n")
    dataset = build_dataset(thai_profile().scaled(0.125))

    print("1. Plain soft-focused crawl (the paper's §5.2.1 baseline):")
    plain, plain_urls, _ = crawl(dataset)
    print(f"   coverage {plain.final_coverage:.0%}, peak queue "
          f"{plain.summary.max_queue_size} URLs all in memory, "
          f"mean same-site burst {mean_same_site_run(plain_urls):.2f}\n")

    print("2. Production configuration (spilling + politeness + timing):")
    # Each frontier= value replaces the queue discipline, so they are
    # shown separately — one cost at a time.  First spilling:
    spilled, spilled_urls, queue = crawl(dataset, SpillConfig(memory_limit=MEMORY_LIMIT))
    stats = queue.stats()
    same = "the same" if spilled_urls == plain_urls else "a DIFFERENT"
    print(f"   [spilling]  {same} fetch order, coverage {spilled.final_coverage:.0%}, "
          f"with only {stats.peak_resident} URLs resident "
          f"({stats.spilled} spilled to disk)")

    polite, polite_urls, _ = crawl(
        dataset,
        HostQueues(),
        timing=TimingModel(politeness_interval_s=1.0, connections=32),
    )
    print(f"   [politeness] coverage {polite.final_coverage:.0%}, mean same-site "
          f"burst {mean_same_site_run(polite_urls):.2f}, simulated duration "
          f"{polite.summary.simulated_seconds / 3600:.1f} h at 1 req/site/s\n")

    print(
        "Together these are the gaps the paper lists between its simulator\n"
        "and a real crawler — closed, measured, and still reproducing the\n"
        "same coverage. See benchmarks/bench_ext_*.py for the assertions."
    )


if __name__ == "__main__":
    main()
