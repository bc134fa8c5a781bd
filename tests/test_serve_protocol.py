"""The serve wire protocol, the load generator, and the stdio server.

The protocol-level contract under test: a session driven over the wire
— open/step/status/evict/close as JSON commands, through ``lswc-sim
serve`` in a real subprocess — produces a final report byte-identical
to a one-shot :func:`repro.api.run_crawl` of the same request, even
when the session is forcibly evicted to disk mid-crawl.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import CrawlRequest, SessionConfig, report_payload, run_crawl
from repro.adversary import AdversaryModel, DefenseConfig
from repro.core.spilling import SpillConfig
from repro.faults import FaultModel, FaultProfile
from repro.errors import ConfigError
from repro.experiments.datasets import load_or_build_dataset
from repro.graphgen import profile_by_name
from repro.serve import (
    LOAD_PROFILES,
    Profiles,
    ProtocolHandler,
    SessionManager,
    generate_workload,
    serve_stdio,
)

from conftest import reseal_checkpoint

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Wire-session knobs shared by the handler tests and the subprocess
#: integration test: a tiny web space, a page cap small enough that a
#: few budgeted steps finish the crawl.
SCALE = 0.02
MAX_PAGES = 40
SAMPLE_INTERVAL = 10


@pytest.fixture(scope="module")
def serve_cache(tmp_path_factory) -> Path:
    """One on-disk dataset cache for every wire session in this module."""
    return tmp_path_factory.mktemp("serve-cache")


def _handler(tmp_path, serve_cache, **kwargs) -> ProtocolHandler:
    manager = SessionManager(spool_dir=tmp_path / "spool", **kwargs.pop("manager", {}))
    return ProtocolHandler(manager, dataset_cache_dir=str(serve_cache), **kwargs)


def _open_command(name: str, strategy: str, seed: int) -> dict:
    return {
        "cmd": "open",
        "session": name,
        "request": {
            "strategy": strategy,
            "dataset": {"profile": "thai", "scale": SCALE, "seed": seed},
        },
        "config": {"max_pages": MAX_PAGES, "sample_interval": SAMPLE_INTERVAL},
    }


def _one_shot(serve_cache, strategy: str, seed: int) -> str:
    """The canonical report of the same request, without the server."""
    dataset = load_or_build_dataset(
        profile_by_name("thai", seed=seed).scaled(SCALE), cache_dir=serve_cache
    )
    result = run_crawl(
        CrawlRequest(dataset=dataset, strategy=strategy),
        config=SessionConfig(max_pages=MAX_PAGES, sample_interval=SAMPLE_INTERVAL),
    )
    return json.dumps(report_payload(result), sort_keys=True)


class TestProtocolHandler:
    def test_ping(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle({"cmd": "ping"}) == {"ok": True, "pong": True}

    def test_errors_become_replies_not_raises(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        for payload in (
            "not an object",
            {},
            {"cmd": "frobnicate"},
            {"cmd": "step"},  # no session field
            {"cmd": "step", "session": "nope"},  # never opened
        ):
            response = handler.handle(payload)
            assert response["ok"] is False
            assert response["error"]["type"] == "SessionError"
            assert response["error"]["message"]
        for payload in (
            {"cmd": "step", "session": "s", "budget": "ten"},
            {"cmd": "open", "session": "s", "request": ["breadth-first"]},
            {"cmd": "open", "session": "s", "request": 5},
            {**_open_command("s", "breadth-first", 9001), "config": [1]},
        ):
            response = handler.handle(payload)
            assert response["ok"] is False
            assert response["error"]["type"] == "ConfigError"
            assert response["error"]["message"]

    def test_session_names_stay_inside_the_spool_dir(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache, manager={"max_resident": 1})
        cadence = {"max_pages": MAX_PAGES, "checkpoint_every": 10}
        for name, error in (
            ("../escaped", "SessionError"),
            ("", "SessionError"),
            (".hidden", "SessionError"),
            ({"x": 1}, "ConfigError"),
            (7, "ConfigError"),
        ):
            for config in ({"max_pages": MAX_PAGES}, cadence):
                command = {**_open_command("ok", "breadth-first", 9001), "config": config}
                reply = handler.handle({**command, "session": name})
                assert reply["ok"] is False, name
                assert reply["error"]["type"] == error, reply
                assert "session" in reply["error"]["message"]
        # A legal name evicted under the cap spools inside the spool dir.
        handler.handle({**_open_command("a", "breadth-first", 9001), "config": cadence})
        assert handler.handle({"cmd": "step", "session": "a", "budget": 15})["ok"]
        assert handler.handle(_open_command("b", "breadth-first", 9001))["ok"]
        assert [path.name for path in tmp_path.iterdir()] == ["spool"]
        assert sorted(path.name for path in (tmp_path / "spool").iterdir()) == [
            "a.evict.ckpt",
            "a.periodic.ckpt",
        ]
        assert handler.handle({"cmd": "shutdown"})["ok"]

    def test_negative_budget_is_an_error_reply(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(_open_command("s", "breadth-first", 9001))["ok"]
        reply = handler.handle({"cmd": "step", "session": "s", "budget": -5})
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ConfigError"
        assert "budget" in reply["error"]["message"] and "-5" in reply["error"]["message"]
        zero = handler.handle({"cmd": "step", "session": "s", "budget": 0})
        assert zero["ok"] and zero["status"]["steps"] == 0
        assert handler.handle({"cmd": "step", "session": "s", "budget": 5})["status"]["steps"] == 5

    def test_unknown_keys_are_rejected(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        bad_request = handler.handle(
            {"cmd": "open", "session": "s", "request": {"strategy": "breadth-first", "webb": 1}}
        )
        assert not bad_request["ok"] and "webb" in bad_request["error"]["message"]
        bad_dataset = handler.handle(
            {
                "cmd": "open",
                "session": "s",
                "request": {
                    "strategy": "breadth-first",
                    "dataset": {"profile": "thai", "sacle": 0.1},
                },
            }
        )
        assert not bad_dataset["ok"] and "sacle" in bad_dataset["error"]["message"]
        bad_config = handler.handle(
            {
                "cmd": "open",
                "session": "s",
                "request": {"strategy": "breadth-first", "dataset": {"profile": "thai"}},
                "config": {"max_pags": 10},
            }
        )
        assert not bad_config["ok"] and "max_pags" in bad_config["error"]["message"]

    def test_strategies_go_by_registry_name(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        response = handler.handle(
            {
                "cmd": "open",
                "session": "s",
                "request": {"strategy": 42, "dataset": {"profile": "thai"}},
            }
        )
        assert not response["ok"]
        assert "request.strategy must be str" in response["error"]["message"]

    @pytest.mark.parametrize(
        "request_spec, named",
        [
            ({"strategy": "breadth-first", "dataset": {"profile": "thai", "scale": "big"}}, "scale"),
            ({"strategy": "breadth-first", "dataset": {"profile": "thai", "seed": "7"}}, "seed"),
            ({"strategy": "breadth-first", "params": [1], "dataset": {"profile": "thai"}}, "params"),
            ({"strategy": "breadth-first"}, "dataset"),
        ],
    )
    def test_mistyped_requests_are_error_replies(
        self, tmp_path, serve_cache, request_spec, named
    ):
        """A wrongly typed request field is a named error reply, never an
        exception escaping ``handle``."""
        handler = _handler(tmp_path, serve_cache)
        reply = handler.handle({"cmd": "open", "session": "s", "request": request_spec})
        assert reply["ok"] is False and reply["error"]["type"] == "ConfigError"
        assert named in reply["error"]["message"]

    def test_open_step_close_matches_one_shot(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(_open_command("s", "breadth-first", 9001))["ok"]
        status = {"done": False}
        while not status["done"]:
            reply = handler.handle({"cmd": "step", "session": "s", "budget": 15})
            assert reply["ok"]
            status = reply["status"]
            # Progress reports between steps must leave no trace in the
            # final report below.
            assert handler.handle({"cmd": "report", "session": "s"})["ok"]
        report = handler.handle({"cmd": "close", "session": "s"})["report"]
        assert json.dumps(report, sort_keys=True) == _one_shot(
            serve_cache, "breadth-first", 9001
        )

    def test_context_and_combined_strategies_cross_the_wire(self, tmp_path, serve_cache):
        """The new registrations (context-aware zoo, hard+limited /
        soft+limited) are reachable by name over the protocol, matching
        the direct run exactly."""
        for name, strategy in (("ctx", "pdd-hybrid"), ("cmb", "soft+limited")):
            handler = _handler(tmp_path / name, serve_cache)
            assert handler.handle(_open_command(name, strategy, 9001))["ok"]
            status = {"done": False}
            while not status["done"]:
                reply = handler.handle({"cmd": "step", "session": name, "budget": 25})
                assert reply["ok"]
                status = reply["status"]
            report = handler.handle({"cmd": "close", "session": name})["report"]
            assert json.dumps(report, sort_keys=True) == _one_shot(
                serve_cache, strategy, 9001
            )

    def test_failed_open_releases_the_session_name(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        bad = _open_command("s", "no-such-strategy", 9001)
        reply = handler.handle(bad)
        assert not reply["ok"] and "unknown strategy" in reply["error"]["message"]
        # The name must not be wedged: a corrected spec reuses it.
        assert handler.handle(_open_command("s", "breadth-first", 9001))["ok"]
        assert handler.handle({"cmd": "close", "session": "s"})["ok"]

    def test_evicted_session_reports_identically(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        handler.handle(_open_command("s", "soft-focused", 9002))
        handler.handle({"cmd": "step", "session": "s", "budget": 10})
        # A progress report right before eviction must not pollute the
        # spooled series.
        assert handler.handle({"cmd": "report", "session": "s"})["ok"]
        evicted = handler.handle({"cmd": "evict", "session": "s"})
        assert evicted["ok"] and evicted["status"]["state"] == "evicted"
        status = {"done": False}
        while not status["done"]:
            status = handler.handle({"cmd": "step", "session": "s", "budget": 10})["status"]
        report = handler.handle({"cmd": "close", "session": "s"})["report"]
        assert json.dumps(report, sort_keys=True) == _one_shot(
            serve_cache, "soft-focused", 9002
        )
        assert handler.manager.stats()["evictions"] >= 1

    def test_malformed_spool_is_an_error_reply_not_a_traceback(self, tmp_path, serve_cache):
        """``handle`` turns library errors into replies and lets anything
        else escape, so a structurally broken spool must surface as a
        ``CheckpointError`` — here a frontier position past the URL
        table, which the restore code would otherwise meet as an
        ``IndexError`` — and the session must survive to be retried."""
        handler = _handler(tmp_path, serve_cache)
        handler.handle(_open_command("s", "soft-focused", 9002))
        handler.handle({"cmd": "step", "session": "s", "budget": 10})
        assert handler.handle({"cmd": "evict", "session": "s"})["ok"]
        spool = tmp_path / "spool" / "s.evict.ckpt"
        good = spool.read_bytes()

        def past_the_table(sections):
            sections["frontier"]["u"][0] = 10**6

        reseal_checkpoint(spool, spool, mutate=past_the_table)

        reply = handler.handle({"cmd": "step", "session": "s", "budget": 10})
        assert reply["ok"] is False
        assert reply["error"]["type"] == "CheckpointError"
        assert "s.evict.ckpt" in reply["error"]["message"]
        assert "'frontier'" in reply["error"]["message"]

        spool.write_bytes(good)
        reply = handler.handle({"cmd": "step", "session": "s", "budget": 10})
        assert reply["ok"] and reply["status"]["steps"] == 20

    def test_concurrent_session_matches_one_shot(self, tmp_path, serve_cache):
        """A wire session at concurrency=2 reports exactly as a direct
        event-driven run of the same request."""
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9003)
        command["config"]["concurrency"] = 2
        command["config"]["timing"] = {
            "latency": 0.01, "bandwidth": 1_000_000, "politeness": 0.1
        }
        assert handler.handle(command)["ok"]
        while not handler.handle({"cmd": "step", "session": "s", "budget": 15})["status"]["done"]:
            pass
        report = handler.handle({"cmd": "close", "session": "s"})["report"]

        from repro.core.timing import TimingModel

        dataset = load_or_build_dataset(
            profile_by_name("thai", seed=9003).scaled(SCALE), cache_dir=serve_cache
        )
        direct = run_crawl(
            CrawlRequest(dataset=dataset, strategy="breadth-first"),
            config=SessionConfig(
                max_pages=MAX_PAGES,
                sample_interval=SAMPLE_INTERVAL,
                concurrency=2,
                timing=TimingModel(
                    bandwidth_bytes_per_s=1_000_000.0,
                    latency_s=0.01,
                    politeness_interval_s=0.1,
                ),
            ),
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            report_payload(direct), sort_keys=True
        )

    def test_evicted_concurrent_session_resumes_with_in_flight_events(
        self, tmp_path, serve_cache
    ):
        """Eviction spools the sched checkpoint (in-flight events and
        all); the transparently-resumed session must finish identically
        to an uninterrupted wire run of the same request."""
        def drive(handler, name):
            command = _open_command(name, "soft-focused", 9004)
            command["config"]["concurrency"] = 4
            command["config"]["timing"] = {"latency": 0.02}
            assert handler.handle(command)["ok"]
            return command

        handler = _handler(tmp_path / "evicted", serve_cache)
        drive(handler, "s")
        handler.handle({"cmd": "step", "session": "s", "budget": 7})
        evicted = handler.handle({"cmd": "evict", "session": "s"})
        assert evicted["ok"] and evicted["status"]["state"] == "evicted"
        while not handler.handle({"cmd": "step", "session": "s", "budget": 10})["status"]["done"]:
            pass
        report = handler.handle({"cmd": "close", "session": "s"})["report"]
        assert handler.manager.stats()["evictions"] >= 1

        uninterrupted = _handler(tmp_path / "straight", serve_cache)
        drive(uninterrupted, "s")
        while not uninterrupted.handle({"cmd": "step", "session": "s", "budget": 10})["status"]["done"]:
            pass
        straight = uninterrupted.handle({"cmd": "close", "session": "s"})["report"]
        assert json.dumps(report, sort_keys=True) == json.dumps(straight, sort_keys=True)

    def test_unknown_timing_keys_are_rejected(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9001)
        command["config"]["timing"] = {"latencyy": 1.0}
        reply = handler.handle(command)
        assert not reply["ok"] and "latencyy" in reply["error"]["message"]

    def test_counter_seeding_is_deterministic(self, tmp_path, serve_cache):
        """Two servers at the same base seed serve identical N-th sessions."""
        reports = []
        for replica in ("a", "b"):
            handler = _handler(tmp_path / replica, serve_cache, base_seed=77)
            command = _open_command("s", "breadth-first", 0)
            del command["request"]["dataset"]["seed"]  # let the counter pick
            handler.handle(command)
            while not handler.handle({"cmd": "step", "session": "s", "budget": 20})["status"]["done"]:
                pass
            reports.append(handler.handle({"cmd": "close", "session": "s"})["report"])
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_scale_snaps_to_grid(self, tmp_path, serve_cache):
        """Nearby load-generated scales share one cached dataset build."""
        handler = _handler(tmp_path, serve_cache)
        for name, scale in (("a", 0.021), ("b", 0.018)):
            command = _open_command(name, "breadth-first", 9001)
            command["request"]["dataset"]["scale"] = scale
            assert handler.handle(command)["ok"]
        assert len(handler._datasets) == 1

    def test_seedless_opens_share_a_seed_pool(self, tmp_path, serve_cache):
        """Seedless sessions cycle a small pool of web spaces, not one each."""
        handler = _handler(tmp_path, serve_cache, seed_pool=2)
        for index in range(4):
            command = _open_command(f"s{index}", "breadth-first", 0)
            del command["request"]["dataset"]["seed"]
            assert handler.handle(command)["ok"]
        assert len(handler._datasets) == 2

    def test_dataset_cache_is_lru_bounded(self, tmp_path, serve_cache):
        """A long-running serve process holds a fixed number of graphs."""
        handler = _handler(tmp_path, serve_cache, dataset_cache_size=2)
        for index, seed in enumerate((9001, 9002, 9003)):
            assert handler.handle(_open_command(f"s{index}", "breadth-first", seed))["ok"]
        assert len(handler._datasets) == 2
        # The oldest build (9001) was evicted; the newer two remain.
        assert {key[2] for key in handler._datasets} == {9002, 9003}

    def test_shutdown_closes_every_session(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        handler.handle(_open_command("s", "breadth-first", 9001))
        assert handler.handle({"cmd": "shutdown"}) == {"ok": True, "bye": True}
        assert handler.shutting_down
        assert handler.manager.stats()["sessions"] == 0


class TestLoadGenerator:
    def test_workload_is_deterministic(self):
        assert generate_workload("S", seed=7) == generate_workload("S", seed=7)
        assert generate_workload("S", seed=7) != generate_workload("S", seed=8)

    def test_workload_respects_profile_table(self):
        for profile in Profiles:
            table = LOAD_PROFILES[profile]
            specs = generate_workload(profile)
            assert len(specs) == table["sessions"]
            assert len({spec.name for spec in specs}) == len(specs)
            last_round = 0
            for spec in specs:
                assert spec.arrival_round >= last_round
                last_round = spec.arrival_round
                assert table["scale"]["min"] <= spec.scale <= table["scale"]["max"]
                assert table["budget"]["min"] <= spec.step_budget <= table["budget"]["max"]
                assert table["pages"]["min"] <= spec.max_pages <= table["pages"]["max"]

    def test_open_command_is_wire_shaped(self):
        command = generate_workload("S")[0].open_command()
        assert command["cmd"] == "open"
        assert command["request"]["dataset"]["profile"] == "thai"
        assert command["config"]["max_pages"] > 0

    def test_unknown_profile_raises(self):
        with pytest.raises(ConfigError, match="unknown load profile"):
            generate_workload("XXL")


class TestStdioTransport:
    def test_one_reply_per_line_and_shutdown(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        stdin = io.StringIO(
            "\n".join(
                [
                    json.dumps({"cmd": "ping"}),
                    "this is not JSON",
                    json.dumps({"cmd": "nope"}),
                    json.dumps({"cmd": "shutdown"}),
                    json.dumps({"cmd": "ping"}),  # after shutdown: never served
                ]
            )
            + "\n"
        )
        stdout = io.StringIO()
        assert serve_stdio(handler, stdin, stdout) == 4
        replies = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [r["ok"] for r in replies] == [True, False, False, True]
        assert replies[1]["error"]["type"] == "ProtocolError"
        assert replies[3] == {"bye": True, "ok": True}


class TestServeCLIIntegration:
    """``lswc-sim serve`` as a real subprocess, driven by a scripted client.

    Three sessions under ``--max-resident 2`` (so the cap evicts), with
    interleaved stepping and one explicitly forced eviction; every final
    report must be byte-identical to a one-shot ``run_crawl``.
    """

    SESSIONS = (
        ("s-bfs", "breadth-first", 9101),
        ("s-soft", "soft-focused", 9102),
        ("s-hard", "hard-focused", 9103),
    )

    def _script(self) -> list[dict]:
        lines: list[dict] = [{"cmd": "ping"}]
        lines += [_open_command(*session) for session in self.SESSIONS]
        for round_index in range(6):  # 6 rounds x budget 15 >= MAX_PAGES
            for name, _, _ in self.SESSIONS:
                lines.append({"cmd": "step", "session": name, "budget": 15})
            if round_index == 1:
                lines.append({"cmd": "evict", "session": "s-soft"})
                lines.append({"cmd": "status", "session": "s-soft"})
        lines += [{"cmd": "close", "session": name} for name, _, _ in self.SESSIONS]
        lines.append({"cmd": "stats"})
        lines.append({"cmd": "shutdown"})
        return lines

    def test_scripted_client_round_trip(self, tmp_path, serve_cache):
        # Build the expected reports first: this also warms the dataset
        # cache the subprocess reads (REPRO_LSWC_CACHE below).
        expected = {
            name: _one_shot(serve_cache, strategy, seed)
            for name, strategy, seed in self.SESSIONS
        }

        script = self._script()
        env = dict(
            os.environ,
            PYTHONPATH=str(REPO_ROOT / "src"),
            REPRO_LSWC_CACHE=str(serve_cache),
        )
        process = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--spool-dir",
                str(tmp_path / "spool"),
                "--max-resident",
                "2",
            ],
            input="\n".join(json.dumps(line) for line in script) + "\n",
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert process.returncode == 0, process.stderr
        replies = [json.loads(line) for line in process.stdout.splitlines()]
        assert len(replies) == len(script), process.stdout
        assert all(reply["ok"] for reply in replies), process.stdout

        by_command = dict(zip((line["cmd"] for line in script), replies))
        # The forced eviction took: the status probe right after it ran
        # (script order) must have seen the session spooled out.
        evict_index = next(i for i, line in enumerate(script) if line["cmd"] == "evict")
        assert replies[evict_index]["status"]["state"] == "evicted"
        assert replies[evict_index + 1]["status"]["state"] == "evicted"

        stats = by_command["stats"]["stats"]
        assert stats["evictions"] >= 2, "cap=2 plus the forced evict must evict"
        assert stats["resumes"] >= 1

        reports = {
            reply["session"]: json.dumps(reply["report"], sort_keys=True)
            for reply in replies
            if "report" in reply
        }
        assert reports == expected


class TestAdversaryOverTheWire:
    """The adversary and the defenses ride in the config object — both
    must round-trip the wire and reproduce a direct in-process run
    exactly."""

    ADVERSARY_WIRE = {"seed": 3, "profile": {"trap_host_rate": 0.3, "trap_fanout": 3}}

    def _hostile_command(self, name, seed):
        command = _open_command(name, "breadth-first", seed)
        command["config"]["adversary"] = dict(self.ADVERSARY_WIRE)
        command["config"]["defenses"] = DefenseConfig.standard().to_json()
        return command

    def test_wire_session_matches_direct_adversarial_run(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(self._hostile_command("s", 9005))["ok"]
        while not handler.handle({"cmd": "step", "session": "s", "budget": 10})["status"]["done"]:
            pass
        report = handler.handle({"cmd": "close", "session": "s"})["report"]

        dataset = load_or_build_dataset(
            profile_by_name("thai", seed=9005).scaled(SCALE), cache_dir=serve_cache
        )
        direct = run_crawl(
            CrawlRequest(dataset=dataset, strategy="breadth-first"),
            config=SessionConfig(
                max_pages=MAX_PAGES,
                sample_interval=SAMPLE_INTERVAL,
                adversary=AdversaryModel.from_json(self.ADVERSARY_WIRE),
                defenses=DefenseConfig.standard(),
            ),
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            report_payload(direct), sort_keys=True
        )

    def test_adversarial_wire_run_differs_from_clean(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(self._hostile_command("s", 9006))["ok"]
        while not handler.handle({"cmd": "step", "session": "s", "budget": 10})["status"]["done"]:
            pass
        report = handler.handle({"cmd": "close", "session": "s"})["report"]
        assert json.dumps(report, sort_keys=True) != _one_shot(
            serve_cache, "breadth-first", 9006
        )

    def test_unknown_adversary_key_is_an_error_reply(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9007)
        command["config"]["adversary"] = {"seed": 1, "profile": {"trap_rate": 0.5}}
        response = handler.handle(command)
        assert response["ok"] is False
        assert "trap_rate" in response["error"]["message"]

    def test_unknown_defense_key_is_an_error_reply(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9008)
        command["config"]["defenses"] = {"max_url_depth": 4, "bogus": 1}
        response = handler.handle(command)
        assert response["ok"] is False
        assert "bogus" in response["error"]["message"]

    def test_seed_only_adversary_is_an_empty_profile(self):
        model = AdversaryModel.from_json({"seed": 7})
        assert model.seed == 7 and model.profile.is_empty

    def test_request_side_adversary_names_the_config(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9007)
        command["request"]["adversary"] = dict(self.ADVERSARY_WIRE)
        response = handler.handle(command)
        assert response["ok"] is False
        assert "config object" in response["error"]["message"]


class TestWireConfigIsSessionConfigJSON:
    """The wire ``config`` object is ``SessionConfig.to_json()``: every
    value field crosses, including the queue, and files on the server do
    not."""

    CONFIG = SessionConfig(
        max_pages=MAX_PAGES,
        sample_interval=SAMPLE_INTERVAL,
        faults=FaultModel(FaultProfile(transient_error_rate=0.2), seed=5),
        frontier=SpillConfig(memory_limit=8),
    )

    def test_any_value_config_matches_its_direct_run(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "soft-focused", 9009)
        command["config"] = json.loads(json.dumps(self.CONFIG.to_json()))
        assert handler.handle(command)["ok"]
        while not handler.handle({"cmd": "step", "session": "s", "budget": 15})["status"]["done"]:
            pass
        report = handler.handle({"cmd": "close", "session": "s"})["report"]

        dataset = load_or_build_dataset(
            profile_by_name("thai", seed=9009).scaled(SCALE), cache_dir=serve_cache
        )
        direct = run_crawl(CrawlRequest(dataset=dataset, strategy="soft-focused"), config=self.CONFIG)
        assert "spilling(" in direct.strategy and direct.resilience["faults_injected"]
        assert json.dumps(report, sort_keys=True) == json.dumps(
            report_payload(direct), sort_keys=True
        )

    def test_spilled_session_under_a_resident_cap_of_one_matches_its_direct_run(
        self, tmp_path, serve_cache
    ):
        """The spilled session is spooled each time the plain one steps,
        and resumed each time it steps itself."""
        handler = _handler(tmp_path, serve_cache, manager={"max_resident": 1})
        spilled = _open_command("s", "soft-focused", 9009)
        spilled["config"] = json.loads(json.dumps(self.CONFIG.to_json()))
        assert handler.handle(spilled)["ok"]
        assert handler.handle(_open_command("t", "breadth-first", 9009))["ok"]
        done: set[str] = set()
        while len(done) < 2:
            for name in {"s", "t"} - done:
                reply = handler.handle({"cmd": "step", "session": name, "budget": 7})
                assert reply["ok"], reply
                if reply["status"]["done"]:
                    done.add(name)
        assert handler.manager.stats()["evictions"] >= 4
        report = handler.handle({"cmd": "close", "session": "s"})["report"]

        dataset = load_or_build_dataset(
            profile_by_name("thai", seed=9009).scaled(SCALE), cache_dir=serve_cache
        )
        direct = run_crawl(CrawlRequest(dataset=dataset, strategy="soft-focused"), config=self.CONFIG)
        assert json.dumps(report, sort_keys=True) == json.dumps(
            report_payload(direct), sort_keys=True
        )
        assert json.dumps(
            handler.handle({"cmd": "close", "session": "t"})["report"], sort_keys=True
        ) == _one_shot(serve_cache, "breadth-first", 9009)

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"checkpoint_every": 5, "checkpoint_path": "/tmp/x.ckpt"}, "checkpoint_path"),
            ({"frontier": {"kind": "spill-config", "spill_dir": "/tmp"}}, "frontier.spill_dir"),
            ({"on_fetch": None}, "live object"),
            ({"max_pages": "40"}, "max_pages"),
            ({"parallel": {"partitions": 2}}, "ParallelConfig"),
        ],
    )
    def test_refused_configs_are_error_replies(self, tmp_path, serve_cache, config, named):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9001)
        command["config"] = config
        reply = handler.handle(command)
        assert reply["ok"] is False
        assert named in reply["error"]["message"]

    @pytest.mark.parametrize(
        "config, named",
        [
            ({"max_pages": -1}, "max_pages"),
            ({"sample_interval": 0}, "sample_interval"),
            ({"sample_interval": -20}, "sample_interval"),
            ({"frontier": {"kind": "spill-config", "memory_limit": 1}}, "memory_limit"),
            ({"frontier": {"kind": "spill-config", "memory_limit": 0}}, "memory_limit"),
            ({"frontier": {"kind": "spill-config", "memory_limit": -3}}, "memory_limit"),
        ],
    )
    def test_out_of_range_knobs_are_config_error_replies(
        self, tmp_path, serve_cache, config, named
    ):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "breadth-first", 9001)
        command["config"] = config
        reply = handler.handle(command)
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ConfigError"
        assert named in reply["error"]["message"]
        assert handler.handle(_open_command("s", "breadth-first", 9001))["ok"]

    def test_re_ranker_on_host_queues_is_a_config_error_reply(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        command = _open_command("s", "pdd-hybrid", 9001)
        command["config"] = {**command["config"], "frontier": {"kind": "host-queues"}}
        reply = handler.handle(command)
        assert reply["ok"] is False
        assert reply["error"]["type"] == "ConfigError"
        assert "pdd-hybrid" in reply["error"]["message"]
        assert "HostQueues" in reply["error"]["message"]
        assert handler.handle(_open_command("s", "pdd-hybrid", 9001))["ok"]


class TestStoreDatasetOverTheWire:
    """`dataset: {"store": path}` — wire sessions over columnar stores."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory) -> Path:
        from repro.experiments.datasets import build_dataset_store
        from repro.graphgen import profile_by_name as by_name

        path = tmp_path_factory.mktemp("serve-store") / "thai.lswc"
        build_dataset_store(
            by_name("thai", seed=77).scaled(SCALE), path, capture_kind="none"
        )
        return path

    def _store_open(self, name: str, store_path: Path) -> dict:
        return {
            "cmd": "open",
            "session": name,
            "request": {
                "strategy": "soft-focused",
                "dataset": {"store": str(store_path)},
            },
            "config": {"max_pages": MAX_PAGES, "sample_interval": SAMPLE_INTERVAL},
        }

    def test_store_session_matches_direct_run(self, tmp_path, serve_cache, store_path):
        from repro.experiments.datasets import open_dataset_store

        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(self._store_open("s", store_path))["ok"]
        status = {"done": False}
        while not status["done"]:
            reply = handler.handle({"cmd": "step", "session": "s", "budget": 15})
            assert reply["ok"]
            status = reply["status"]
        report = handler.handle({"cmd": "close", "session": "s"})["report"]

        dataset = open_dataset_store(store_path)
        try:
            result = run_crawl(
                CrawlRequest(dataset=dataset, strategy="soft-focused"),
                config=SessionConfig(max_pages=MAX_PAGES, sample_interval=SAMPLE_INTERVAL),
            )
        finally:
            dataset.crawl_log.close()
        assert json.dumps(report, sort_keys=True) == json.dumps(
            report_payload(result), sort_keys=True
        )

    def test_store_excludes_other_dataset_keys(self, tmp_path, serve_cache, store_path):
        """Any other key is refused, even one at its default value."""
        handler = _handler(tmp_path, serve_cache)
        for extra in ({"scale": 0.5}, {"scale": 1.0}, {"seed": None, "capture_kind": None}):
            reply = handler.handle(
                {
                    "cmd": "open",
                    "session": "s",
                    "request": {
                        "strategy": "soft-focused",
                        "dataset": {"store": str(store_path), **extra},
                    },
                }
            )
            assert not reply["ok"]
            message = reply["error"]["message"]
            assert f"excludes other dataset keys: {sorted(extra)}" in message

    def test_missing_store_file_is_an_error_reply(self, tmp_path, serve_cache):
        handler = _handler(tmp_path, serve_cache)
        reply = handler.handle(
            {
                "cmd": "open",
                "session": "s",
                "request": {
                    "strategy": "soft-focused",
                    "dataset": {"store": str(tmp_path / "missing.lswc")},
                },
            }
        )
        assert not reply["ok"]

    def test_store_sessions_share_one_cached_dataset(self, tmp_path, serve_cache, store_path):
        handler = _handler(tmp_path, serve_cache)
        assert handler.handle(self._store_open("a", store_path))["ok"]
        assert handler.handle(self._store_open("b", store_path))["ok"]
        store_keys = [key for key in handler._datasets if key[0] == "store"]
        assert len(store_keys) == 1
        handler.handle({"cmd": "close", "session": "a"})
        handler.handle({"cmd": "close", "session": "b"})
