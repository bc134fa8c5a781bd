"""Extension E6: partitioned (parallel) crawling of a national web.

A national archive crawl eventually outgrows one machine.  This
benchmark runs the standard parallel-crawler design space (host-hash
partitioning; firewall vs exchange coordination) over the Thai dataset
and measures the classic trade-off:

- **firewall** needs zero coordination but loses every page whose
  inlinks all cross partitions — coverage decays as partitions grow;
- **exchange** keeps full coverage, paying one message per
  cross-partition link delivery — communication grows with partitions.
"""

from repro.api import run_crawl
from repro.core.parallel import ParallelConfig, PartitionMode
from repro.core.session import CrawlRequest
from repro.core.strategies import BreadthFirstStrategy
from repro.experiments.report import render_table

from conftest import emit

PARTITION_SWEEP = (1, 2, 4, 8)


def test_ext_parallel_crawling(benchmark, thai_bench, results_dir):
    def sweep():
        rows = []
        for mode in (PartitionMode.FIREWALL, PartitionMode.EXCHANGE):
            for partitions in PARTITION_SWEEP:
                result = run_crawl(
                    CrawlRequest(dataset=thai_bench, strategy=BreadthFirstStrategy),
                    config=ParallelConfig(partitions=partitions, mode=mode),
                )
                rows.append(
                    {
                        "mode": mode.value,
                        "partitions": partitions,
                        "coverage": round(result.coverage, 3),
                        "messages": result.messages_exchanged,
                        "dropped_links": result.dropped_foreign_links,
                        "balance": round(result.balance, 2),
                    }
                )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    emit(
        results_dir,
        "ext_parallel",
        render_table(rows, title="Extension E6: partitioned crawling (firewall vs exchange)"),
        data=rows,
    )

    firewall = [row for row in rows if row["mode"] == "firewall"]
    exchange = [row for row in rows if row["mode"] == "exchange"]

    # Firewall: coverage non-increasing in partitions, real loss by P=8.
    coverages = [row["coverage"] for row in firewall]
    assert all(a >= b - 1e-9 for a, b in zip(coverages, coverages[1:]))
    assert coverages[0] == 1.0 and coverages[-1] < 0.9
    # Exchange: full coverage at every partition count...
    assert all(row["coverage"] > 0.999 for row in exchange)
    # ...with communication growing in partitions.
    messages = [row["messages"] for row in exchange]
    assert messages[0] == 0  # single crawler exchanges nothing
    assert all(a <= b for a, b in zip(messages, messages[1:]))
