"""Per-layer tracing from outside the package.

The traced child wraps public callables of ``repro`` in place, so the
package itself carries no benchmark code.  Calls are folded into one
span per *(operation x span name)* — name, layer, start, end, parent,
call count, busy and self seconds, pass and operation id — kept in
memory and written out by ``child.py`` when the pass is over.  Self time
is a span's duration minus the part of it that child spans cover.

The wrappers cost about a microsecond a call, and that cost lands in
the *caller's* self time; ``trace.overhead_ratio`` states how much
slower the traced pass ran.  Timed runs never import this module.

A target that a later change has renamed or removed is skipped and
listed in :attr:`Tracer.missing`; its metrics then read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

#: (module, dotted attribute, span name).  The span name's prefix is the
#: metric family; :data:`LAYER_OF` maps it to the module-named layer.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.webspace.store", "PageStore.get", "store.get"),
    ("repro.webspace.store", "PageStore.url_of", "store.url_of"),
    ("repro.webspace.store", "PageStore.id_of", "store.id_of"),
    ("repro.webspace.store", "PageStore.outlink_ids", "store.outlink_ids"),
    ("repro.webspace.virtualweb", "VirtualWebSpace.fetch", "web.fetch"),
    ("repro.core.visitor", "Visitor.fetch", "visitor.fetch"),
    ("repro.core.visitor", "Visitor.extract", "visitor.extract"),
    ("repro.core.visitor", "Visitor.extract_contexts", "visitor.extract_contexts"),
    # The visitor binds the function by name at import, so patch it there.
    ("repro.core.visitor", "synthesize_link_contexts", "linkcontext.synthesize"),
    ("repro.core.classifier", "Classifier.judge", "classifier.judge"),
    ("repro.core.strategies.simple", "SimpleStrategy.expand", "strategy.expand"),
    ("repro.core.strategies.breadth_first", "BreadthFirstStrategy.expand", "strategy.expand"),
    ("repro.core.strategies.hybrid", "PDDHybridStrategy.expand", "strategy.expand"),
    ("repro.core.frontier", "FIFOFrontier.push", "frontier.push"),
    ("repro.core.frontier", "FIFOFrontier.pop", "frontier.pop"),
    ("repro.core.frontier", "PriorityFrontier.push", "frontier.push"),
    ("repro.core.frontier", "PriorityFrontier.pop", "frontier.pop"),
    ("repro.core.frontier", "ReprioritizableFrontier.push", "frontier.push"),
    ("repro.core.frontier", "ReprioritizableFrontier.pop", "frontier.pop"),
    ("repro.core.frontier", "ReprioritizableFrontier.update_priority", "frontier.update_priority"),
    ("repro.core.engine", "CrawlEngine.run", "engine.run"),
    ("repro.core.sched", "VirtualTimeEngine.run", "sched.run"),
    ("repro.core.metrics", "MetricsRecorder.record", "metrics.record"),
    ("repro.core.session", "CrawlSession.__init__", "session.init"),
    ("repro.core.session", "CrawlSession.open", "session.open"),
    ("repro.core.session", "CrawlSession.step", "session.step"),
    ("repro.core.session", "CrawlSession.report", "session.report"),
    ("repro.core.session", "CrawlSession.close", "session.close"),
    ("repro.core.session", "CrawlSession.save_checkpoint", "session.save_checkpoint"),
    # Bound by name in the session module, like the link contexts above.
    ("repro.core.session", "write_checkpoint", "checkpoint.write"),
    ("repro.core.session", "read_checkpoint", "checkpoint.read"),
    ("repro.serve.manager", "SessionManager.open", "manager.open"),
    ("repro.serve.manager", "SessionManager.step", "manager.step"),
    ("repro.serve.manager", "SessionManager.report", "manager.report"),
    ("repro.serve.manager", "SessionManager.close", "manager.close"),
    ("repro.serve.protocol", "ProtocolHandler.handle", "protocol.handle"),
)

#: Span-name prefix -> layer (module) name.
LAYER_OF = {
    "store": "webspace.store",
    "web": "webspace.virtualweb",
    "visitor": "core.visitor",
    "linkcontext": "graphgen.linkcontext",
    "classifier": "core.classifier",
    "strategy": "core.strategies",
    "frontier": "core.frontier",
    "engine": "core.engine",
    "sched": "core.sched",
    "metrics": "core.metrics",
    "session": "core.session",
    "checkpoint": "core.checkpoint",
    "manager": "serve.manager",
    "protocol": "serve.protocol",
    "wire": "wire",
    "op": "harness",
}

#: A session built or opened directly under one of these is a resume
#: (``SessionManager`` rebuilds evicted sessions only inside them), so
#: its span gets a ``.resume`` suffix and resumes can be told from opens.
_MANAGER_OPS = frozenset({"manager.step", "manager.report", "manager.close"})
_RESUME_SPLIT = frozenset({"session.init", "session.open"})


class Tracer:
    """Wraps callables, folds their calls into spans, keeps a few counts."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.missing: list[str] = []
        #: Counts taken where the work happens (bytes read, children kept...).
        self.counts = {
            "pread_bytes": 0,
            "url_of_preads": 0,
            "expand_children": 0,
            "engine_steps": 0,
            "checkpoint_write_bytes": 0,
            "frontier_peak": 0,
        }
        #: Seconds per engine stage, from ``EngineHook.on_stage_timing``.
        self.stage_seconds: dict[str, float] = {}
        # Frames are [seconds covered by child spans, span name]; the
        # bottom frame stands for the operation in flight.
        self._stack: list[list] = [[0.0, None]]
        # span name -> [calls, busy, self, first start, last end, parent]
        self._acc: dict[str, list] = {}
        self._op: tuple[int, int, str] = (0, 0, "")

    # -- operations -----------------------------------------------------

    def begin_op(self, pass_id: int, op_id: int, kind: str) -> None:
        self._op = (pass_id, op_id, kind)
        self._acc.clear()
        self._stack[0][0] = 0.0
        self._stack[0][1] = "op." + kind

    def end_op(self, started: float, ended: float) -> None:
        pass_id, op_id, kind = self._op
        root = "op." + kind
        rows = {root: [1, ended - started, ended - started - self._stack[0][0], started, ended, None]}
        rows.update(self._acc)
        for name, (calls, busy, self_s, first, last, parent) in rows.items():
            self.spans.append(
                {
                    "name": name,
                    "layer": LAYER_OF[name.split(".", 1)[0]],
                    "pass": pass_id,
                    "op": op_id,
                    "start": first,
                    "end": last,
                    "parent": parent,
                    "calls": calls,
                    "busy_s": busy,
                    "self_s": self_s,
                }
            )

    # -- wrapping -------------------------------------------------------

    def traced(self, fn, name: str, after=None):
        """``fn`` wrapped to record a span called ``name`` around each call.

        ``after(result, args)`` runs once the clock has stopped, for
        counts that need the result.
        """
        stack = self._stack
        acc = self._acc
        perf = time.perf_counter
        split = name in _RESUME_SPLIT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = name + ".resume" if split and parent[1] in _MANAGER_OPS else name
            frame = [0.0, span]
            stack.append(frame)
            started = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - started
                stack.pop()
                parent[0] += elapsed
                row = acc.get(span)
                if row is None:
                    acc[span] = [1, elapsed, elapsed - frame[0], started, started + elapsed, parent[1]]
                else:
                    row[0] += 1
                    row[1] += elapsed
                    row[2] += elapsed - frame[0]
                    row[4] = started + elapsed
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _after(self, name: str):
        counts = self.counts
        if name == "store.pread":
            stack = self._stack

            def after(result, _args):
                counts["pread_bytes"] += len(result)
                # The pread's own frame is gone: the top is its caller.
                if stack[-1][1] == "store.url_of":
                    counts["url_of_preads"] += 1

        elif name == "strategy.expand":

            def after(result, _args):
                counts["expand_children"] += len(result)

        elif name in ("engine.run", "sched.run"):

            def after(result, _args):
                counts["engine_steps"] += result

        elif name == "checkpoint.write":

            def after(_result, args):
                counts["checkpoint_write_bytes"] += os.path.getsize(args[0])

        elif name == "session.report":

            def after(result, _args):
                counts["frontier_peak"] = max(counts["frontier_peak"], result.frontier_peak)

        else:
            return None
        return after

    def install(self) -> None:
        """Replace every target in :data:`TARGETS` with its traced form."""
        # os.pread is where the store reads its arenas from disk.
        os.pread = self.traced(os.pread, "store.pread", self._after("store.pread"))
        for module_name, path, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attribute = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = getattr(owner, attribute)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if isinstance(owner, type) and attribute not in vars(owner):
                continue  # inherited: the defining class is wrapped (or listed)
            setattr(owner, attribute, self.traced(original, name, self._after(name)))

    def stage_hook(self):
        """An ``EngineHook`` summing the engine's own stage timings."""
        from repro import EngineHook

        totals = self.stage_seconds

        class StageTimingHook(EngineHook):
            def on_stage_timing(self, stage, seconds, step) -> None:
                totals[stage.value] = totals.get(stage.value, 0.0) + seconds

        return StageTimingHook()

    def hook_wire_configs(self, hook) -> None:
        """Attach ``hook`` to every session config built from the wire."""
        from dataclasses import replace

        from repro.serve import ProtocolHandler

        build_config = ProtocolHandler.build_config

        @functools.wraps(build_config)
        def with_hook(*args, **kwargs):
            config = build_config(*args, **kwargs)
            return replace(config, hooks=config.hooks + (hook,))

        ProtocolHandler.build_config = with_hook

    # -- reading the spans ----------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls / busy / self seconds per span name over the traced pass."""
        totals: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = totals.setdefault(span["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += span["calls"]
            row["busy_s"] += span["busy_s"]
            row["self_s"] += span["self_s"]
        return totals


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    outcome,
    previous_manager_stats: dict,
) -> dict[str, float]:
    """The traced pass as per-layer metrics (names as in ``layers.json``).

    Every ``*_busy_s``, ``*_self_s`` and ``session.*_ms`` value is a
    total over the one traced pass, not a per-call mean.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name: str) -> int:
        return int(totals.get(name, {}).get("calls", 0))

    def busy(name: str) -> float:
        return totals.get(name, {}).get("busy_s", 0.0)

    def self_s(name: str) -> float:
        return totals.get(name, {}).get("self_s", 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    cache = outcome.classifier_cache
    summaries = [report.get("summary", {}) for report in outcome.reports]
    results = [report.get("result", {}) for report in outcome.reports]
    manager = outcome.manager_stats
    layer_self = sum(span["self_s"] for span in tracer.spans if span["layer"] != "harness")
    session_opens = busy("session.open") + busy("session.open.resume")
    return {
        "store.get_calls": calls("store.get"),
        "store.get_busy_s": busy("store.get"),
        "store.url_of_calls": calls("store.url_of"),
        "store.url_of_busy_s": busy("store.url_of"),
        "store.id_of_calls": calls("store.id_of"),
        "store.id_of_busy_s": busy("store.id_of"),
        "store.outlink_ids_calls": calls("store.outlink_ids"),
        "store.preads": calls("store.pread"),
        "store.pread_bytes": counts["pread_bytes"],
        "store.preads_per_page": ratio(calls("store.pread"), outcome.pages),
        "store.url_cache_hit_ratio": (
            1.0 - ratio(counts["url_of_preads"], calls("store.url_of"))
            if calls("store.url_of")
            else 0.0
        ),
        "web.fetch_calls": calls("web.fetch"),
        "web.fetch_self_s": self_s("web.fetch"),
        "visitor.fetch_busy_s": busy("visitor.fetch"),
        "visitor.extract_busy_s": busy("visitor.extract"),
        "visitor.extract_contexts_busy_s": busy("visitor.extract_contexts"),
        "classifier.judge_calls": calls("classifier.judge"),
        "classifier.judge_busy_s": busy("classifier.judge"),
        "classifier.cache_hit_ratio": ratio(
            cache.get("hits", 0), cache.get("hits", 0) + cache.get("misses", 0)
        ),
        "strategy.expand_calls": calls("strategy.expand"),
        "strategy.expand_busy_s": busy("strategy.expand"),
        "strategy.candidates_per_expand": ratio(
            counts["expand_children"], calls("strategy.expand")
        ),
        "linkcontext.synthesize_calls": calls("linkcontext.synthesize"),
        "linkcontext.synthesize_busy_s": busy("linkcontext.synthesize"),
        "frontier.push_calls": calls("frontier.push"),
        "frontier.pop_calls": calls("frontier.pop"),
        "frontier.update_priority_calls": calls("frontier.update_priority"),
        "frontier.push_busy_s": busy("frontier.push"),
        "frontier.pop_busy_s": busy("frontier.pop"),
        "frontier.update_priority_busy_s": busy("frontier.update_priority"),
        "frontier.peak_size": counts["frontier_peak"],
        "engine.stage_pop_s": tracer.stage_seconds.get("pop", 0.0),
        "engine.stage_prioritize_s": tracer.stage_seconds.get("prioritize", 0.0),
        "engine.stage_schedule_s": tracer.stage_seconds.get("schedule", 0.0),
        "engine.loop_self_s": self_s("engine.run") + self_s("sched.run"),
        "engine.steps": counts["engine_steps"],
        "sched.sim_seconds": sum(s.get("simulated_seconds") or 0.0 for s in summaries),
        "metrics.record_calls": calls("metrics.record"),
        "metrics.record_busy_s": busy("metrics.record"),
        "session.open_ms": 1000.0 * session_opens,
        "session.report_ms": 1000.0 * busy("session.report"),
        "session.close_ms": 1000.0 * busy("session.close"),
        "checkpoint.write_calls": calls("checkpoint.write"),
        "checkpoint.write_busy_s": busy("checkpoint.write"),
        "checkpoint.write_bytes": counts["checkpoint_write_bytes"],
        "checkpoint.read_calls": calls("checkpoint.read"),
        "checkpoint.read_busy_s": busy("checkpoint.read"),
        "manager.step_busy_s": busy("manager.step"),
        "manager.evictions": manager.get("evictions", 0) - previous_manager_stats.get("evictions", 0),
        "manager.resumes": manager.get("resumes", 0) - previous_manager_stats.get("resumes", 0),
        "manager.evict_busy_s": busy("session.save_checkpoint"),
        "manager.resume_busy_s": busy("session.init.resume") + busy("session.open.resume"),
        "protocol.handle_calls": calls("protocol.handle"),
        "protocol.handle_self_s": self_s("protocol.handle"),
        "wire.encode_busy_s": busy("wire.encode"),
        "wire.decode_busy_s": busy("wire.decode"),
        "wire.bytes_in": outcome.wire_bytes_in,
        "wire.bytes_out": outcome.wire_bytes_out,
        "serve.sessions_per_s": (
            ratio(len(outcome.reports), untraced_wall_s) if manager else 0.0
        ),
        "sim.pages_crawled": sum(r.get("pages_crawled", 0) for r in results),
        "sim.harvest_rate": ratio(
            sum(r.get("final_harvest_rate", 0.0) for r in results), len(results)
        ),
        "sim.coverage": ratio(sum(r.get("final_coverage", 0.0) for r in results), len(results)),
        "sim.max_queue_size": max((r.get("max_queue_size", 0) for r in results), default=0),
        "trace.overhead_ratio": ratio(traced_wall_s, untraced_wall_s),
        "trace.coverage_ratio": ratio(layer_self, traced_wall_s),
    }
