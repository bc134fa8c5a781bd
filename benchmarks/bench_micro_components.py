"""Micro-benchmarks of the load-bearing components.

Where the macro benchmarks time whole experiments, these time the inner
loops a user would size a deployment around: frontier throughput,
charset detection bandwidth, HTML synthesis, and raw simulator page
rate.  They run with pytest-benchmark's full statistics (many rounds),
unlike the single-shot experiment benches.
"""

import numpy as np

from repro.charset.detector import detect_charset
from repro.charset.languages import Language
from repro.core.classifier import Classifier
from repro.core.frontier import Candidate, FIFOFrontier, PriorityFrontier
from repro.core.session import CrawlRequest, CrawlSession, SessionConfig
from repro.core.strategies import SimpleStrategy
from repro.graphgen.htmlsynth import HtmlSynthesizer
from repro.graphgen.textgen import TextGenerator
from repro.webspace.page import PageRecord

N_OPS = 2_000


def test_micro_fifo_frontier(benchmark):
    candidates = [Candidate(url=f"http://p{index}.example/") for index in range(N_OPS)]

    def churn():
        frontier = FIFOFrontier()
        for item in candidates:
            frontier.push(item)
        while frontier:
            frontier.pop()

    benchmark(churn)


def test_micro_priority_frontier(benchmark):
    candidates = [
        Candidate(url=f"http://p{index}.example/", priority=index % 7) for index in range(N_OPS)
    ]

    def churn():
        frontier = PriorityFrontier()
        for item in candidates:
            frontier.push(item)
        while frontier:
            frontier.pop()

    benchmark(churn)


def test_micro_detector_japanese(benchmark):
    text = TextGenerator("japanese", np.random.default_rng(1)).paragraph(60)
    data = text.encode("euc_jp")

    result = benchmark(lambda: detect_charset(data))
    assert result.language is Language.JAPANESE
    benchmark.extra_info["document_bytes"] = len(data)


def test_micro_detector_thai(benchmark):
    text = TextGenerator("thai", np.random.default_rng(1)).paragraph(60)
    data = text.encode("tis_620")

    result = benchmark(lambda: detect_charset(data))
    assert result.language is Language.THAI
    benchmark.extra_info["document_bytes"] = len(data)


def test_micro_html_synthesis(benchmark):
    synthesizer = HtmlSynthesizer()
    record = PageRecord(
        url="http://bench.co.th/page.html",
        charset="TIS-620",
        true_language=Language.THAI,
        outlinks=tuple(f"http://l{index}.example/" for index in range(12)),
        size=8_000,
    )
    body = benchmark(lambda: synthesizer(record))
    assert body.startswith(b"<!DOCTYPE html>")


def test_micro_simulator_page_rate(benchmark, thai_bench):
    """End-to-end pages/second of the simulator core (charset mode)."""
    pages = 3_000

    def crawl():
        return CrawlSession(
            CrawlRequest(
                strategy=SimpleStrategy(mode="soft"),
                web=thai_bench.web(),
                classifier=Classifier(Language.THAI),
                seeds=tuple(thai_bench.seed_urls),
                relevant_urls=thai_bench.relevant_urls(),
            ),
            SessionConfig(sample_interval=1000, max_pages=pages),
        ).run()

    result = benchmark.pedantic(crawl, rounds=3, iterations=1)
    assert result.pages_crawled == pages
    benchmark.extra_info["pages_per_round"] = pages
