"""Extension E4: disk-spilling URL queue.

The soft-focused strategy's fatal flaw is queue memory ("we would end up
with the exhaustion of physical space for the URL queue", §5.2.1); the
paper's answer is to *discard* URLs (limited distance).  This benchmark
evaluates the engineering alternative a production crawler uses —
spilling the cold tail of the queue to disk — and compares both cures:

- spilling keeps soft-focused's exact crawl — the same pop order, so
  the same fetches and coverage — at a tiny resident set, paying in
  disk traffic;
- limited distance keeps everything in memory but gives up tail coverage.
"""

from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.spilling import SpillConfig
from repro.core.strategies import LimitedDistanceStrategy, SimpleStrategy
from repro.experiments.report import render_table
from repro.experiments.runner import run_strategy

from conftest import emit

MEMORY_LIMIT = 500


def test_ext_spilling_frontier(benchmark, thai_bench, results_dir):
    def compare():
        plain = run_strategy(thai_bench, SimpleStrategy(mode="soft"))
        session = CrawlSession(
            CrawlRequest(dataset=thai_bench, strategy=SimpleStrategy(mode="soft")),
            SessionConfig(frontier=SpillConfig(memory_limit=MEMORY_LIMIT)),
        )
        session.step()
        spilled, stats = session.report(), session.frontier.stats()
        session.close()
        limited = run_strategy(thai_bench, LimitedDistanceStrategy(n=1, prioritized=True))
        return plain, stats, spilled, limited

    plain, stats, spilled, limited = benchmark.pedantic(compare, rounds=1, iterations=1)

    rows = [
        {
            "approach": "soft-focused (all in memory)",
            "resident_peak": plain.summary.max_queue_size,
            "spilled_urls": 0,
            "coverage": round(plain.final_coverage, 3),
        },
        {
            "approach": f"soft-focused + spilling (mem={MEMORY_LIMIT})",
            "resident_peak": stats.peak_resident,
            "spilled_urls": stats.spilled,
            "coverage": round(spilled.final_coverage, 3),
        },
        {
            "approach": "prioritized limited distance (N=1)",
            "resident_peak": limited.summary.max_queue_size,
            "spilled_urls": 0,
            "coverage": round(limited.final_coverage, 3),
        },
    ]
    emit(
        results_dir,
        "ext_spilling",
        render_table(rows, title="Extension E4: two cures for URL-queue memory exhaustion"),
    )

    # Spilling: same coverage as plain soft at a fraction of the memory.
    assert spilled.final_coverage == plain.final_coverage
    assert stats.peak_resident < plain.summary.max_queue_size / 10
    assert stats.spilled > 0
    # Limited distance trades coverage for memory instead.
    assert limited.final_coverage < plain.final_coverage
