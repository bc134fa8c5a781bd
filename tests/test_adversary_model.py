"""Unit tests for the adversary model: profiles, decisions, loading.

Mirrors ``test_faults_model.py``: determinism is the load-bearing
property — the same seed and profile must describe the identical
adversarial web in any query order — so most tests compare
independently constructed models rather than pinning specific draws.
"""

import pytest

from repro.adversary import AdversaryModel, AdversaryProfile
from repro.adversary.model import MISLABEL_MAP
from repro.errors import ConfigError


class TestAdversaryProfile:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trap_host_rate": -0.1},
            {"trap_host_rate": 1.5},
            {"redirect_rate": 2.0},
            {"redirect_loop_rate": -1.0},
            {"soft404_rate": 1.01},
            {"alias_host_rate": -0.5},
            {"mislabel_rate": 1.1},
            {"trap_fanout": 0},
            {"soft404_fanout": -1},
            {"redirect_hops": 0},
        ],
    )
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ConfigError):
            AdversaryProfile(**kwargs)

    def test_default_profile_is_empty(self):
        assert AdversaryProfile().is_empty

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trap_host_rate": 0.1},
            {"trap_hosts": ("evil.co.th",)},
            {"redirect_rate": 0.1},
            {"soft404_rate": 0.1},
            {"alias_host_rate": 0.1},
            {"alias_hosts": ("churn.co.th",)},
            {"mislabel_rate": 0.1},
        ],
    )
    def test_any_armed_knob_is_not_empty(self, kwargs):
        assert not AdversaryProfile(**kwargs).is_empty

    def test_json_roundtrip(self):
        profile = AdversaryProfile(
            trap_host_rate=0.2,
            trap_hosts=("a.co.th",),
            redirect_rate=0.1,
            redirect_loop_rate=0.3,
            alias_hosts=("b.co.th", "c.com"),
            mislabel_rate=0.05,
        )
        assert AdversaryProfile.from_json(profile.to_json()) == profile

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown adversary profile keys"):
            AdversaryProfile.from_json({"trap_rate": 0.5})


class TestAdversaryModelDeterminism:
    URLS = [f"http://h{i % 7}.co.th/p/{i}.html" for i in range(200)]

    PROFILE = AdversaryProfile(
        trap_host_rate=0.3,
        redirect_rate=0.2,
        redirect_loop_rate=0.4,
        soft404_rate=0.3,
        alias_host_rate=0.3,
        mislabel_rate=0.2,
    )

    def _decisions(self, model):
        rows = []
        for i, url in enumerate(self.URLS):
            host = f"h{i % 7}.co.th"
            rows.append(
                (
                    model.is_trap_host(host),
                    model.is_alias_host(host),
                    model.redirects(url),
                    model.chain_loops(f"tok{i}"),
                    model.soft404(url),
                    model.mislabels(url),
                    model.token_hex("trapchild", url),
                    model.trap_size(url),
                )
            )
        return rows

    def test_same_seed_same_decisions(self):
        first = self._decisions(AdversaryModel(profile=self.PROFILE, seed=11))
        second = self._decisions(AdversaryModel(profile=self.PROFILE, seed=11))
        assert first == second
        assert any(any(row[:6]) for row in first)

    def test_query_order_does_not_matter(self):
        forward = self._decisions(AdversaryModel(profile=self.PROFILE, seed=11))
        model = AdversaryModel(profile=self.PROFILE, seed=11)
        # Warm the model with reversed queries first; decisions must not move.
        self._decisions(model)
        assert self._decisions(model) == forward

    def test_different_seed_differs(self):
        assert self._decisions(AdversaryModel(profile=self.PROFILE, seed=1)) != self._decisions(
            AdversaryModel(profile=self.PROFILE, seed=2)
        )

    def test_rates_are_calibrated(self):
        model = AdversaryModel(profile=AdversaryProfile(soft404_rate=0.25), seed=3)
        hits = sum(1 for i in range(2000) if model.soft404(f"http://x.co.th/p/{i}.html"))
        assert 0.20 < hits / 2000 < 0.30

    def test_explicit_hosts_ignore_the_draw(self):
        model = AdversaryModel(
            profile=AdversaryProfile(trap_hosts=("evil.co.th",), alias_hosts=("churn.com",)),
            seed=0,
        )
        assert model.is_trap_host("evil.co.th")
        assert model.is_trap_host("evil.co.th:8080")  # port-insensitive
        assert model.is_alias_host("churn.com")
        assert not model.is_trap_host("honest.co.th")

    def test_zero_rate_never_fires(self):
        model = AdversaryModel(profile=AdversaryProfile(), seed=9)
        assert not any(model.redirects(url) for url in self.URLS)
        assert not any(model.is_trap_host(f"h{i}.co.th") for i in range(50))


class TestMislabelMap:
    def test_map_is_a_thai_japanese_involution(self):
        for source, target in MISLABEL_MAP.items():
            assert MISLABEL_MAP[target] == source

    def test_mislabel_for_canonicalizes(self):
        assert AdversaryModel.mislabel_for("tis-620") == "EUC-JP"
        assert AdversaryModel.mislabel_for("EUC-JP") == "TIS-620"
        assert AdversaryModel.mislabel_for("not-a-charset") is None


class TestLoadAdversaryModel:
    def test_loads_full_shape(self, tmp_path):
        path = tmp_path / "adversary.json"
        path.write_text(
            '{"seed": 9, "profile": {"trap_host_rate": 0.2, "alias_hosts": ["a.co.th"]}}'
        )
        model = AdversaryModel.load(path)
        assert model.seed == 9
        assert model.profile.trap_host_rate == 0.2
        assert model.profile.alias_hosts == ("a.co.th",)

    def test_loads_bare_profile(self, tmp_path):
        path = tmp_path / "adversary.json"
        path.write_text('{"soft404_rate": 0.5}')
        model = AdversaryModel.load(path)
        assert model.seed == 0
        assert model.profile.soft404_rate == 0.5

    def test_missing_file_raises_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read adversary model"):
            AdversaryModel.load(tmp_path / "nope.json")

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "adversary.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="must be a JSON object"):
            AdversaryModel.load(path)

    def test_model_json_roundtrip(self):
        model = AdversaryModel(profile=AdversaryProfile(trap_host_rate=0.4), seed=17)
        rebuilt = AdversaryModel.from_json(model.to_json())
        assert rebuilt.seed == model.seed
        assert rebuilt.profile == model.profile
