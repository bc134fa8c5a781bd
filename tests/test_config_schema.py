"""One config schema: every run-shaping value is its own JSON.

The codec (:mod:`repro.schema`) is generated from ``dataclasses.fields``
and the annotations, so these tests draw configs from the same schema:
a field added to ``SessionConfig`` (or to any value it nests) lands in
the round-trip property, the CLI flag set and the wire by construction.
"""

import json
from dataclasses import MISSING, replace
from enum import Enum
from pathlib import Path
from typing import get_args, get_origin

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    AdversaryModel,
    AdversaryProfile,
    DefenseConfig,
    FaultModel,
    FaultProfile,
    SessionConfig,
    TimingModel,
)
from repro.cli import _config_flags, _config_from_args, build_parser
from repro.core.session import LIVE_FIELDS
from repro.core.spilling import SpillConfig
from repro.errors import ConfigError
from repro.schema import field_specs, host_paths, value_types

# -- a config strategy generated from the schema -----------------------------


def _scalar(hint, default):
    """A few valid values of one scalar field, its default first."""
    if hint is bool:
        return st.booleans()
    if hint is str:
        return st.sampled_from(["a.co.th", "b.com"])
    if hint is float:
        small = [0.0, 0.25, 0.5] if default is MISSING or default <= 1 else []
        return st.sampled_from([default, *small] if default is not MISSING else small)
    if hint is int:
        # ``None``-default knobs (page caps, defense limits) must be >= 1.
        base = {MISSING: 0, None: 1}.get(default, default)
        return st.sampled_from([base, base + 1, 2 * base + 3])
    if isinstance(hint, type) and issubclass(hint, Enum):
        return st.sampled_from(list(hint))
    raise AssertionError(f"no strategy for {hint!r}")


def _values(hint, default=MISSING):
    options = get_args(hint) if get_origin(hint) is not tuple and get_args(hint) else (hint,)
    strategies = []
    for option in options:
        if option is type(None):
            strategies.append(st.none())
        elif option is Path:
            continue  # ``str | Path`` decodes as str
        elif value_types(option):
            strategies.append(_config(option))
        elif get_origin(option) is tuple:
            inner = get_args(option)[0]
            if get_origin(inner) is tuple:
                pair = st.tuples(st.sampled_from(["a.co.th", "b.com"]), _values(get_args(inner)[1]))
                strategies.append(st.lists(pair, max_size=2, unique_by=lambda p: p[0]).map(tuple))
            else:
                strategies.append(st.lists(_values(inner), max_size=2).map(tuple))
        else:
            strategies.append(_scalar(option, default))
    return st.one_of(strategies)


def _config(cls):
    if cls.__name__ == "HostOutage":  # a window must satisfy start < end
        return st.builds(cls, host=st.just("a.co.th"), start=st.just(1), end=st.just(5))
    specs = [spec for spec in field_specs(cls) if not spec.live]
    required = {s.name: _values(s.hint, s.default) for s in specs if s.default is MISSING}
    optional = {s.name: _values(s.hint, s.default) for s in specs if s.default is not MISSING}
    return st.fixed_dictionaries(required, optional=optional).map(lambda kwargs: cls(**kwargs))


class TestRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(config=_config(SessionConfig))
    def test_object_wire_object_is_identity(self, config):
        wire = json.loads(json.dumps(config.to_json()))
        rebuilt = SessionConfig.from_json(wire)
        assert rebuilt == config
        assert json.loads(json.dumps(rebuilt.to_json())) == wire

    @pytest.mark.parametrize(
        "knobs, named",
        [({"sample_interval": 0}, "sample_interval"), ({"max_pages": -1}, "max_pages")],
    )
    def test_out_of_range_knobs_fail_where_the_config_is_built(self, knobs, named):
        with pytest.raises(ConfigError, match=named):
            SessionConfig(**knobs)
        with pytest.raises(ConfigError, match=named):
            SessionConfig.from_json(knobs)
        assert SessionConfig(max_pages=0, sample_interval=1).max_pages == 0

    @pytest.mark.parametrize("limit", [1, 0, -3])
    def test_spill_memory_limit_fails_where_the_config_is_built(self, limit):
        with pytest.raises(ConfigError, match="memory_limit"):
            SessionConfig(frontier=SpillConfig(memory_limit=limit))
        with pytest.raises(ConfigError, match="memory_limit"):
            SessionConfig.from_json({"frontier": {"kind": "spill-config", "memory_limit": limit}})
        assert SpillConfig(memory_limit=2).memory_limit == 2

    def test_default_config_is_the_empty_object(self):
        assert SessionConfig().to_json() == {}
        assert SessionConfig.from_json({}) == SessionConfig()

    def test_a_model_has_the_one_shape_it_writes(self):
        faults = FaultModel.from_json({"seed": 2, "global": {"timeout_rate": 0.1}})
        assert faults.to_json() == {"global": {"timeout_rate": 0.1}, "seed": 2}
        with pytest.raises(ConfigError, match="timeout_rate"):
            FaultModel.from_json({"seed": 2, "timeout_rate": 0.1})
        with pytest.raises(ConfigError, match="trap_host_rate"):
            AdversaryModel.from_json({"seed": 3, "trap_host_rate": 0.3})

    def test_an_adversary_file_may_hold_a_bare_profile(self, tmp_path):
        path = tmp_path / "adversary.json"
        path.write_text(json.dumps({"trap_host_rate": 0.3}))
        assert AdversaryModel.load(path) == AdversaryModel(AdversaryProfile(trap_host_rate=0.3))
        path.write_text(json.dumps({"seed": 3, "trap_host_rate": 0.3}))
        with pytest.raises(ConfigError, match="seed"):
            AdversaryModel.load(path)

    def test_timing_keys_are_the_short_knob_names(self):
        timing = TimingModel(bandwidth_bytes_per_s=1e6, latency_s=0.01, politeness_interval_s=0.1)
        assert timing.to_json() == {"bandwidth": 1e6, "latency": 0.01, "politeness": 0.1}
        assert TimingModel.from_json({"latency": 1}) == TimingModel(latency_s=1.0)

    def test_a_union_field_is_tagged_with_its_kind(self):
        config = SessionConfig(frontier=SpillConfig(memory_limit=50))
        assert config.to_json() == {"frontier": {"kind": "spill-config", "memory_limit": 50}}
        assert SessionConfig.from_json(config.to_json()) == config


class TestNamedErrors:
    @pytest.mark.parametrize(
        "data, named",
        [
            ({"max_pags": 1}, "max_pags"),
            ({"max_pages": "10"}, "SessionConfig.max_pages"),
            ({"max_pages": True}, "SessionConfig.max_pages"),
            ({"sample_interval": None}, "SessionConfig.sample_interval"),
            ({"timing": {"latencyy": 1}}, "latencyy"),
            ({"timing": {"latency": -1}}, "latency"),
            ({"faults": {"outages": [{"host": "a.com"}]}}, "malformed host outage"),
            ({"faults": {"global": {}, "timeout_rate": 0.1}}, "timeout_rate"),
            ({"adversary": {"profile": {"trap_hosts": "a.com"}}}, "trap_hosts"),
            ({"frontier": {"memory_limit": 5}}, '"kind"'),
            ({"parallel": {"mode": "broadcast"}}, "SessionConfig.parallel.mode"),
            ([1, 2], "JSON object"),
        ],
    )
    def test_bad_input_is_a_config_error_naming_the_key(self, data, named):
        with pytest.raises(ConfigError, match=named):
            SessionConfig.from_json(data)

    @pytest.mark.parametrize("name", LIVE_FIELDS)
    def test_live_fields_have_no_json_form(self, name):
        with pytest.raises(ConfigError, match=f"SessionConfig.{name} names a live object"):
            SessionConfig.from_json({name: None})
        live = {"on_fetch": print, "instrumentation": object(), "hooks": (object(),)}
        config = SessionConfig(**{name: live.get(name, "run.ckpt")})
        with pytest.raises(ConfigError, match=f"SessionConfig.{name} names a live object"):
            config.to_json()

    def test_host_paths_are_found_in_nested_values(self):
        config = SessionConfig(checkpoint_path="x.ckpt", frontier=SpillConfig(spill_dir="/tmp"))
        assert host_paths(config) == ["checkpoint_path", "frontier.spill_dir"]
        assert host_paths(SessionConfig(frontier=SpillConfig())) == []


class TestGeneratedCLI:
    def test_every_value_field_has_a_flag(self):
        """A new SessionConfig field is a run flag unless it opts out."""
        flagged = {spec.name for _flag, spec, parent in _config_flags() if parent is None}
        for spec in field_specs(SessionConfig):
            if spec.live or spec.metadata.get("flag") is False:
                assert spec.name not in flagged
            else:
                assert spec.name in flagged

    def test_flags_build_the_config_they_spell(self, tmp_path):
        faults = tmp_path / "faults.json"
        faults.write_text(json.dumps({"seed": 1, "global": {"transient_error_rate": 0.2}}))
        adversary = tmp_path / "adversary.json"
        adversary.write_text(json.dumps({"soft404_rate": 0.5}))
        args = build_parser().parse_args(
            [
                "run", "thai", "soft-focused",
                "--max-pages", "300", "--sample-interval", "20", "--concurrency", "4",
                "--latency", "0.02", "--faults", str(faults), "--fault-seed", "9",
                "--adversary", str(adversary), "--adversary-seed", "7",
                "--defenses", "--max-url-depth", "6", "--checkpoint", "run.ckpt",
            ]
        )
        config = _config_from_args(args)
        assert config == SessionConfig(
            max_pages=300,
            sample_interval=20,
            concurrency=4,
            timing=TimingModel(latency_s=0.02),
            faults=FaultModel(FaultProfile(transient_error_rate=0.2), seed=9),
            adversary=AdversaryModel(AdversaryProfile(soft404_rate=0.5), seed=7),
            defenses=replace(DefenseConfig.standard(), max_url_depth=6),
            checkpoint_path="run.ckpt",
            checkpoint_every=1000,
        )
        assert SessionConfig.from_json(json.loads(json.dumps(config.to_json()))) == config

    def test_overrides_apply_to_the_value_their_parent_flag_gave(self, tmp_path):
        timing = tmp_path / "timing.json"
        timing.write_text(json.dumps({"latency": 0.5, "politeness": 2}))
        frontier = tmp_path / "frontier.json"
        frontier.write_text(json.dumps({"kind": "host-queues"}))
        args = build_parser().parse_args(
            [
                "run", "thai", "bfs", "--timing", str(timing), "--latency", "0.1",
                "--frontier", str(frontier),
            ]
        )
        config = _config_from_args(args)
        assert config.timing == TimingModel(latency_s=0.1, politeness_interval_s=2.0)
        assert config.to_json()["frontier"] == {"kind": "host-queues"}
        args = build_parser().parse_args(["run", "thai", "bfs", "--latency", "0.1"])
        assert _config_from_args(args).timing == TimingModel(latency_s=0.1)

    @pytest.mark.parametrize("flag, parent", [("--fault-seed", "--faults"), ("--adversary-seed", "--adversary")])
    def test_a_seed_alone_is_an_error_exit(self, flag, parent, capsys):
        """A seed has no model to apply to: it must not attach an empty
        injection layer (and its Resilience / Adversary table)."""
        from repro.cli import main

        code = main(["run", "thai", "breadth-first", flag, "9"])
        assert code == 1
        assert f"{flag} needs {parent}" in capsys.readouterr().err

    def test_out_of_range_spill_limit_file_is_an_error_exit(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "frontier.json"
        path.write_text(json.dumps({"kind": "spill-config", "memory_limit": 0}))
        code = main(["run", "thai", "soft-focused", "--frontier", str(path)])
        assert code == 1
        assert "memory_limit" in capsys.readouterr().err

    def test_bad_model_file_is_an_error_exit(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "faults.json"
        path.write_text(json.dumps({"seed": "lots"}))
        code = main(["run", "thai", "breadth-first", "--faults", str(path)])
        assert code == 1
        assert "seed" in capsys.readouterr().err
