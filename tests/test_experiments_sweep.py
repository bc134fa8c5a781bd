"""The sweep kernel and the one contract every sweep module meets.

``repro.experiments.sweep`` owns what the grid experiments used to copy:
the digest, the cell fan-out, the comma-list argparse type and the CLI
tail.  The contract suite runs the same five checks against each of the
four ``RunSpec`` sweeps; what is specific to one sweep (recovery ratios,
ranking order, the published tournament digest) stays in its own file.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import pytest

from repro.errors import ConfigError
from repro.exec import DatasetSpec
from repro.experiments import adversweep, concurrency, faultsweep, tournament
from repro.experiments.datasets import build_dataset
from repro.experiments.figures import figure6
from repro.experiments.sweep import comma_list, sweep_digest, sweep_main
from repro.graphgen.profiles import thai_profile


@pytest.fixture(scope="module")
def small_dataset():
    return build_dataset(thai_profile().scaled(0.02))


@dataclass(frozen=True)
class Sweep:
    """One sweep module, as the contract suite drives it."""

    main: Callable[[list[str]], int]
    #: The public sweep function at its smallest: ``(dataset, workers) -> payload``.
    call: Callable[..., dict]
    rows_key: str
    #: CI's smoke flags (``--workers 2 --check-determinism --output F`` are appended).
    smoke: str
    #: ``(payload) -> str`` and the value the smoke pins it to.
    pinned: tuple[Callable[[dict], str], str]
    bad_list: str
    #: Flags that parse but fail inside the library (negative worker count).
    repro_error: str


def _points_hash(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload["points"], sort_keys=True).encode()).hexdigest()


def _digest(payload: dict) -> str:
    return payload["digest_sha256"]


SWEEPS = {
    "concurrency": Sweep(
        main=concurrency._main,
        call=lambda dataset, workers: concurrency.concurrency_sweep(
            dataset, ks=(1, 4), max_pages=120, workers=workers
        ),
        rows_key="rows",
        smoke="--scale 0.02 --ks 1,8 --max-pages 400",
        pinned=(_digest, "6153f57741f89ed631f02eff386414a86588c6f5d7bd0914f4b9650b11d54fef"),
        bad_list="--ks 1,x",
        repro_error="--scale 0.02 --ks 1 --max-pages 50 --workers -1",
    ),
    "adversweep": Sweep(
        main=adversweep._main,
        call=lambda dataset, workers: adversweep.adversarial_sweep(
            dataset,
            strategies=("breadth-first",),
            scenarios=("clean", "traps"),
            seeds=(7,),
            max_pages=120,
            workers=workers,
        ),
        rows_key="rows",
        smoke=(
            "--scale 0.02 --strategies breadth-first,soft-focused "
            "--scenarios clean,traps,aliases --seeds 7 --max-pages 1100"
        ),
        pinned=(_digest, "91b7c9ab8f9e3bf08f901dfee3df8e7c5599abb76d2263c724ad2baa072c18f1"),
        bad_list="--seeds 7,x",
        repro_error="--scale 0.02 --strategies breadth-first --seeds 7 --max-pages 50 --workers -1",
    ),
    "tournament": Sweep(
        main=tournament._main,
        call=lambda dataset, workers: tournament.tournament_sweep(
            strategies=("breadth-first", "infospiders"),
            scales=(0.02,),
            seeds=(7,),
            max_pages=120,
            workers=workers,
        ),
        rows_key="rows",
        smoke=(
            "--scales 0.02 --strategies soft-focused,pdd-hybrid,infospiders "
            "--seeds 20050304,7 --max-pages 1100"
        ),
        pinned=(_digest, "a99dfe2b49e08bf659a02708a5bfaabd5a430986dda29c14be9f19026ed562e9"),
        bad_list="--scales big",
        repro_error="--strategies breadth-first --scales 0.02 --seeds 7 --max-pages 50 --workers -1",
    ),
    "faultsweep": Sweep(
        main=faultsweep.main,
        call=lambda dataset, workers: faultsweep.faultsweep_payload(
            dataset,
            faultsweep.fault_sweep(
                dataset,
                rates=(0.0, 0.3),
                strategies=("breadth-first", ("limited-distance", {"n": 2})),
                max_pages=150,
                workers=workers,
            ),
        ),
        rows_key="points",
        smoke="--scale 0.02 --rates 0,0.2 --max-pages 200",
        pinned=(_points_hash, "6052b6a9a3b15f54bc9f0534e2282f68203dc83230a3d7284a2d0a8168ed2822"),
        bad_list="--rates 0,1.5",
        repro_error="--scale 0.02 --rates 0 --max-pages 50 --workers -1",
    ),
}


@pytest.fixture(params=sorted(SWEEPS))
def sweep(request) -> Sweep:
    return SWEEPS[request.param]


class TestSweepContract:
    def test_digest_is_stable_and_worker_count_invisible(self, sweep, small_dataset):
        serial = sweep.call(small_dataset, 0)
        assert serial["digest_sha256"] == sweep_digest(serial)
        assert sweep.call(small_dataset, 0)["digest_sha256"] == serial["digest_sha256"]
        assert sweep.call(small_dataset, 2)["digest_sha256"] == serial["digest_sha256"]

    def test_cli_smoke_is_deterministic_and_pinned(self, sweep, tmp_path, capsys):
        output = tmp_path / "out" / "payload.json"
        argv = [*sweep.smoke.split(), "--workers", "2", "--check-determinism"]
        assert sweep.main([*argv, "--output", str(output)]) == 0
        assert "determinism check ok" in capsys.readouterr().out
        payload = json.loads(output.read_text())
        assert payload["digest_sha256"] == sweep_digest(payload)
        assert payload[sweep.rows_key]
        digest_of, expected = sweep.pinned
        assert digest_of(payload) == expected

    def test_bad_comma_list_is_a_usage_error(self, sweep, capsys):
        with pytest.raises(SystemExit) as excinfo:
            sweep.main(sweep.bad_list.split())
        assert excinfo.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    def test_library_error_is_one_line_and_exit_1(self, sweep, capsys):
        assert sweep.main(sweep.repro_error.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestCommaList:
    def test_casts_and_strips(self):
        assert comma_list(int)("1, 8 ,64") == (1, 8, 64)
        assert comma_list(float)("0,0.2") == (0.0, 0.2)
        assert comma_list(str)("a,b") == ("a", "b")

    @pytest.mark.parametrize("text", ["", ",", " , "])
    def test_empty_list_is_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError, match="at least one"):
            comma_list(int)(text)

    def test_cast_failure_names_the_text(self):
        with pytest.raises(argparse.ArgumentTypeError, match="'a,b'"):
            comma_list(float)("a,b")

    def test_bounds_are_inclusive(self):
        rate = comma_list(float, minimum=0.0, maximum=1.0)
        assert rate("0,1") == (0.0, 1.0)
        with pytest.raises(argparse.ArgumentTypeError, match="<= 1.0, got 1.5"):
            rate("0.5,1.5")
        with pytest.raises(argparse.ArgumentTypeError, match=">= 1, got 0"):
            comma_list(int, minimum=1)("4,0")

    def test_known_names_unknown_values(self):
        scenario = comma_list(str, known=("clean", "traps"))
        assert scenario("traps,clean") == ("traps", "clean")
        with pytest.raises(argparse.ArgumentTypeError, match=r"\['bogus'\].*clean"):
            scenario("clean,bogus")


class TestSweepMain:
    @staticmethod
    def _parser() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(prog="fake-sweep")

    def test_nondeterministic_sweep_fails_naming_both_digests(self, capsys, tmp_path):
        counter = itertools.count()

        def run(workers):
            payload = {"workers": workers, "draw": next(counter)}
            payload["digest_sha256"] = sweep_digest({"draw": payload["draw"]})
            return payload

        output = tmp_path / "never.json"
        argv = ["--check-determinism", "--output", str(output)]
        assert sweep_main(self._parser(), lambda args: run, argv) == 1
        err = capsys.readouterr().err
        assert "determinism check FAILED" in err
        assert sweep_digest({"draw": 0}) in err and sweep_digest({"draw": 1}) in err
        assert not output.exists()

    def test_prints_the_payload_without_an_output_file(self, capsys):
        payload = {"rows": [1], "digest_sha256": "d"}
        assert sweep_main(self._parser(), lambda args: lambda workers: payload, []) == 0
        assert json.loads(capsys.readouterr().out) == payload

    def test_a_repro_error_while_binding_axes_is_exit_1(self, capsys):
        def sweep(args):
            raise ConfigError("no such dataset")

        assert sweep_main(self._parser(), sweep, []) == 1
        assert capsys.readouterr().err == "error: no such dataset\n"


class TestInProcessSweepsUseTheLiveDataset:
    """``DatasetSpec.from_dataset`` seeds the per-process cache, so a
    serial sweep never rebuilds (or reloads) what its caller holds."""

    @pytest.fixture()
    def fresh_dataset(self, monkeypatch):
        def no_rebuild(self):
            raise AssertionError(f"an in-process sweep rebuilt its dataset from {self}")

        monkeypatch.setattr(DatasetSpec, "build", no_rebuild)
        # A new object, so nothing cached for an equal spec can stand in.
        return build_dataset(thai_profile().scaled(0.02))

    def test_fault_sweep(self, fresh_dataset):
        points = faultsweep.fault_sweep(
            fresh_dataset, rates=(0.0,), strategies=("breadth-first",), max_pages=50
        )
        assert [point.pages_crawled for point in points] == [50]

    def test_adversarial_sweep(self, fresh_dataset):
        payload = adversweep.adversarial_sweep(
            fresh_dataset,
            strategies=("breadth-first",),
            scenarios=("clean",),
            seeds=(7,),
            max_pages=50,
        )
        assert [row["pages"] for row in payload["rows"]] == [50, 50]

    def test_figure6(self, fresh_dataset):
        assert list(figure6(fresh_dataset, ns=(1,)).results) == [
            "non-prioritized-limited-distance(N=1)"
        ]
