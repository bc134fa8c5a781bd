"""The ledger's workloads: four deterministic passes over public API only.

A *pass* is a fixed script of open / step / report / close operations.
Every operation goes through :meth:`Recorder.op`, which times it (and,
in the traced child, brackets it for the tracer); every check goes
through :meth:`Recorder.check`, outside the timed interval.  The same
seed gives the same universe, so operation *j* does the same work in
every pass of every run — which is what lets ``child.py`` take the
per-operation best across passes.  How many passes a run makes is a
constant of the workload (scaled by ``--seconds``), never a function of
how fast the passes ran.

Nothing here imports ``repro`` at module import: the parent process
(``run.py``) reads only the tables, the measuring child imports the
package inside the functions that need it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

#: ``--seed`` default.  The universe itself is always the profile's own
#: default seed: ten universes differ by 4 % in bytes per page and by up
#: to 60 % in store crawl speed, which would drown every bound.  What
#: ``--seed`` draws is how many portal pages the crawl is seeded from.
DEFAULT_SEED = 20050304

#: ``--seed`` picks ``n_seeds`` in [SEED_URLS_MIN, SEED_URLS_MIN + SEED_URLS_SPAN).
SEED_URLS_MIN = 4
SEED_URLS_SPAN = 13

#: ``--seconds`` default; BENCHMARK.json's ``run_seconds`` is the same.
#: Each workload's ``passes`` is sized so that its measured phase lasts
#: about this long on the sizing box.
DEFAULT_SECONDS = 10

#: A measured phase is never fewer passes than this, however small
#: ``--seconds``: host bursts last one to three seconds, and do not cover
#: the same operation in all of five passes.
MIN_PASSES = 5


#: p95 needs at least ten samples beyond it, so at least this many step ops.
MIN_STEP_OPS = 200

#: Why each workload exists (BENCHMARK.json's ``why`` lines are these), and
#: its sizing.  ``passes`` is the measured passes of a ``DEFAULT_SECONDS``
#: run and ``builds`` the timed set-up builds (after one untimed; odd,
#: so their median is a build that was timed).
WORKLOADS: dict[str, dict] = {
    "mem-soft-round": {
        "why": (
            "paper Fig 3 setting: soft-focused over an in-memory web, so engine "
            "loop, frontier, strategy and metrics do the work; store and serve bypassed"
        ),
        "kind": "crawl",
        "backend": "memory",
        "profile": "thai",
        "strategy": "soft-focused",
        "full": {"scale": 1.0, "max_pages": 36_000, "budget": 180, "passes": 15, "builds": 9},
        "smoke": {"scale": 0.05, "max_pages": 2_000, "budget": 10, "passes": 1, "builds": 1},
    },
    "store-soft-beyond-cache": {
        "why": (
            "the same web and crawl over one shared PageStore whose decoded-URL cache "
            "is smaller than the URLs touched, so it evicts: isolates webspace.store"
        ),
        "kind": "crawl",
        "backend": "store",
        "profile": "thai",
        "strategy": "soft-focused",
        # 36 000 pages touch 72 566 to 72 733 distinct URLs, whichever of the
        # thirteen seed lists starts the crawl; the store's decoded-URL cache
        # holds 65 536.  ``min_distinct_urls`` fails a run that leaves that regime.
        "primed": True,
        "full": {
            "scale": 1.0, "max_pages": 36_000, "budget": 180, "passes": 5, "builds": 9,
            "min_distinct_urls": 70_000,
        },
        "smoke": {"scale": 0.05, "max_pages": 2_000, "budget": 10, "passes": 1, "builds": 1},
    },
    "mem-hybrid-cued": {
        "why": (
            "pdd-hybrid on a cued web: re-prioritising frontier, expand with link "
            "contexts and context synthesis dominate; 15x the per-page cost of soft-focused"
        ),
        "kind": "crawl",
        "backend": "memory",
        "profile": "thai-cued",
        "strategy": "pdd-hybrid",
        "full": {"scale": 0.25, "max_pages": 6_000, "budget": 30, "passes": 7, "builds": 19},
        "smoke": {"scale": 0.05, "max_pages": 1_000, "budget": 5, "passes": 1, "builds": 1},
    },
    "serve-store-evict": {
        "why": (
            "six wire sessions over two resident slots: every step evicts and resumes, "
            "so serve, checkpoint write and read, session open and JSON wire dominate"
        ),
        "kind": "serve",
        "backend": "store",
        "profile": "thai",
        "full": {"scale": 0.25, "max_pages": 1_200, "budget": 36, "passes": 5, "builds": 19},
        "smoke": {"scale": 0.05, "max_pages": 200, "budget": 6, "passes": 1, "builds": 1},
    },
}

#: The six sessions of one serve pass: three orderings, each once
#: round-based and once event-driven (K = 8, 50 ms simulated latency),
#: so both engines' checkpoint formats are written and read.
SERVE_SESSIONS: tuple[tuple[str, dict], ...] = tuple(
    (strategy, extra)
    for strategy in ("soft-focused", "breadth-first", "hard-focused")
    for extra in ({}, {"concurrency": 8, "timing": {"latency": 0.05}})
)

#: Resident-session cap of the serve workload (six sessions, two slots).
SERVE_MAX_RESIDENT = 2


def sizing(name: str, smoke: bool) -> dict:
    """The ``full`` or ``smoke`` sizing of workload ``name``."""
    return WORKLOADS[name]["smoke" if smoke else "full"]


def pass_count(name: str, smoke: bool, seconds: float) -> int:
    """Measured passes of one run: the workload's own count, scaled by ``seconds``.

    Fixed for a given ``--seconds``: a minimum over more samples is lower,
    so code that got faster must not be given more passes (nor slower
    code fewer).
    """
    passes = sizing(name, smoke)["passes"]
    if smoke:
        return passes
    return max(MIN_PASSES, round(passes * seconds / DEFAULT_SECONDS))


def build_profile(name: str, smoke: bool, seed: int):
    """The :class:`DatasetProfile` workload ``name`` builds its web from.

    Seed pages are the most attractive target-language pages of distinct
    hosts, chosen after the graph is drawn, so ``n_seeds`` changes where
    the crawl starts (the store file carries the list, which is how it
    reaches wire sessions) and nothing about the web.
    """
    from dataclasses import replace

    from repro import thai_profile
    from repro.experiments.tournament import cued_thai_profile

    scale = sizing(name, smoke)["scale"]
    if WORKLOADS[name]["profile"] == "thai-cued":
        profile = cued_thai_profile(scale)
    else:
        profile = thai_profile().scaled(scale)
    return replace(profile, n_seeds=SEED_URLS_MIN + seed % SEED_URLS_SPAN)


def payload_digest(payload: dict) -> str:
    """sha256 of a report payload in its canonical JSON form."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def digest_number(digest: str) -> int:
    """A hex digest's first 48 bits: exact in a JSON number."""
    return int(digest[:12], 16)


def url_counting_hook(touched: set):
    """An ``EngineHook`` adding every URL a step fetched or extracted to ``touched``.

    Attached to the warm-up pass only, of a workload whose sizing names
    ``min_distinct_urls``: the working set against the program's own
    cache is what defines that workload, so a run checks it has it.
    """
    from repro import EngineHook, EngineStage

    class UrlCountingHook(EngineHook):
        def on_stage(self, stage, step) -> None:
            if stage is EngineStage.EXTRACT:
                touched.add(step.candidate.url)
                touched.update(step.outlinks)

    return UrlCountingHook()


@dataclass
class PassOutcome:
    """What one pass produced, for the checks and the ``sim.*`` metrics."""

    pages: int
    digest: str
    reports: list[dict]
    classifier_cache: dict = field(default_factory=dict)
    wire_bytes_in: int = 0
    wire_bytes_out: int = 0
    manager_stats: dict = field(default_factory=dict)


class Recorder:
    """Times operations and counts failed checks.

    ``passes`` holds one ``[(kind, seconds), ...]`` list per pass; a
    tracer, when given, is told where each operation starts and ends.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.passes: list[list[tuple[str, float]]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._op_failed = False

    def begin_pass(self) -> None:
        self.passes.append([])

    def op(self, kind: str, call):
        """Run ``call()`` as one timed operation and return its result."""
        current = self.passes[-1]
        tracer = self.tracer
        self.attempted += 1
        self._op_failed = False
        if tracer is not None:
            tracer.begin_op(len(self.passes) - 1, len(current), kind)
        started = time.perf_counter()
        result = call()
        ended = time.perf_counter()
        if tracer is not None:
            tracer.end_op(started, ended)
        current.append((kind, ended - started))
        return result

    def check(self, passed: bool, message: str) -> None:
        """Count the operation just run as failed (once) unless ``passed``."""
        if passed:
            return
        if not self._op_failed:
            self._op_failed = True
            self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(message)


class CrawlWorkload:
    """One direct :class:`CrawlSession` per pass: open, step, report, close."""

    def __init__(self, name: str, smoke: bool, dataset, hooks: tuple = ()) -> None:
        size = sizing(name, smoke)
        self.strategy = WORKLOADS[name]["strategy"]
        self.max_pages = size["max_pages"]
        self.budget = size["budget"]
        self.dataset = dataset
        self.primed = WORKLOADS[name].get("primed", False)
        #: Engine hooks; the warm-up and the traced pass may attach one, timed passes none.
        self.hooks = hooks

    def prepare(self) -> None:
        """Nothing to compute ahead of the passes."""

    def _request(self):
        from repro import CrawlRequest
        from repro.core.classifier import Classifier, ClassifierCache

        classifier = Classifier(self.dataset.target_language, cache=ClassifierCache())
        return CrawlRequest(strategy=self.strategy, dataset=self.dataset, classifier=classifier)

    def prime(self) -> None:
        """Untimed, before every pass: the state the pass must start from.

        A shared ``PageStore`` carries its decoded-URL cache from crawl to
        crawl, and a FIFO cache smaller than the crawl's URL set is in
        another phase after every crawl — consecutive passes took 3.6,
        7.3, 7.0, 5.6, 7.5 s on the sizing box, run after run.  So the
        cache is emptied and the same crawl run once, untimed: every
        timed pass is then the second crawl over the store, cache full
        and evicting from its first step, and the passes are identical.
        """
        from repro import CrawlSession, SessionConfig

        if self.primed:
            self.dataset.crawl_log.release_page_cache()
            CrawlSession(self._request(), SessionConfig(max_pages=self.max_pages)).run()

    def run_pass(self, rec: Recorder) -> PassOutcome:
        from repro import CrawlSession, SessionConfig, report_payload

        request = self._request()
        config = SessionConfig(max_pages=self.max_pages, hooks=self.hooks)
        budget = self.budget

        session = rec.op("open", lambda: CrawlSession(request, config).open())
        crawled = 0
        while not session.done:
            expected = min(budget, self.max_pages - crawled)
            stepped = rec.op("step", lambda: session.step(budget))
            rec.check(stepped == expected, f"step crawled {stepped} pages, expected {expected}")
            if stepped == 0:
                break
            crawled += stepped
        result = rec.op("report", session.report)
        rec.check(
            result.pages_crawled == self.max_pages,
            f"report counts {result.pages_crawled} pages, expected {self.max_pages}",
        )
        rec.op("close", session.close)
        payload = report_payload(result)
        return PassOutcome(
            pages=crawled,
            digest=payload_digest(payload),
            reports=[payload],
            classifier_cache=request.classifier.cache.stats(),
        )


class ServeWorkload:
    """Six wire sessions over a two-slot :class:`SessionManager`.

    ``ProtocolHandler.handle`` is driven in-process, with the JSON
    encode and decode a transport would do on both directions inside the
    timed operation.  The handler (and so its dataset cache and the one
    ``PageStore`` in it) lives across passes, like a server process.
    """

    def __init__(self, name: str, smoke: bool, store_path: str, spool_dir: str) -> None:
        from repro.serve import ProtocolHandler, SessionManager

        size = sizing(name, smoke)
        self.max_pages = size["max_pages"]
        self.budget = size["budget"]
        self.handler = ProtocolHandler(
            SessionManager(spool_dir=spool_dir, max_resident=SERVE_MAX_RESIDENT)
        )
        self.specs = [
            (
                f"s{index}",
                {"strategy": strategy, "dataset": {"store": store_path}},
                {"max_pages": self.max_pages, **extra},
            )
            for index, (strategy, extra) in enumerate(SERVE_SESSIONS)
        ]
        self.expected: dict[str, dict] = {}
        #: The transport's codec; the traced child swaps in traced forms.
        self.encode = json.dumps
        self.decode = json.loads
        self._bytes_in = 0
        self._bytes_out = 0

    def prepare(self) -> None:
        """Run each session's request directly: the reports the wire must match."""
        from repro import CrawlSession, report_payload

        for name, request_spec, config_spec in self.specs:
            request = self.handler.build_request(request_spec)
            config = self.handler.build_config(config_spec)
            self.expected[name] = report_payload(CrawlSession(request, config).run())

    def prime(self) -> None:
        """Nothing: the store stays within its cache, so passes leave it as they found it."""

    def _roundtrip(self, command: dict) -> dict:
        """One command as a transport would carry it: encode, handle, decode."""
        line = self.encode(command)
        reply_line = self.encode(self.handler.handle(self.decode(line)))
        self._bytes_in += len(line)
        self._bytes_out += len(reply_line)
        return self.decode(reply_line)

    def _command(self, rec: Recorder, kind: str, command: dict) -> dict:
        reply = rec.op(kind, lambda: self._roundtrip(command))
        rec.check(reply.get("ok") is True, f"{kind} {command.get('session')}: {reply.get('error')}")
        return reply

    def run_pass(self, rec: Recorder) -> PassOutcome:
        self._bytes_in = self._bytes_out = 0
        for name, request_spec, config_spec in self.specs:
            self._command(
                rec,
                "open",
                {"cmd": "open", "session": name, "request": request_spec, "config": config_spec},
            )
        steps = {name: 0 for name, _request, _config in self.specs}
        pending = list(steps)
        while pending:
            for name in list(pending):
                expected = min(steps[name] + self.budget, self.max_pages)
                reply = self._command(
                    rec, "step", {"cmd": "step", "session": name, "budget": self.budget}
                )
                status = reply.get("status", {})
                rec.check(
                    status.get("steps") == expected,
                    f"step {name}: at {status.get('steps')} pages, expected {expected}",
                )
                steps[name] = expected
                if status.get("done") or expected >= self.max_pages or not reply.get("ok"):
                    pending.remove(name)
        reports = []
        for name, _request, _config in self.specs:
            reply = self._command(rec, "report", {"cmd": "report", "session": name})
            rec.check(
                reply.get("report") == self.expected[name],
                f"report {name}: wire report differs from the direct run",
            )
            reports.append(reply.get("report") or {})
        manager_stats = self._command(rec, "stats", {"cmd": "stats"}).get("stats", {})
        for name, _request, _config in self.specs:
            reply = self._command(rec, "close", {"cmd": "close", "session": name})
            rec.check(
                reply.get("report") == self.expected[name],
                f"close {name}: final report differs from the direct run",
            )
        return PassOutcome(
            pages=sum(steps.values()),
            digest=payload_digest({"sessions": reports}),
            reports=reports,
            wire_bytes_in=self._bytes_in,
            wire_bytes_out=self._bytes_out,
            manager_stats=manager_stats,
        )
