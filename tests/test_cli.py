"""Unit tests for the lswc-sim CLI."""

import pytest
from conftest import V1_STORE_FIXTURE

from repro.cli import build_parser, main
from repro.core.strategies import available_strategies


class TestParser:
    def test_dataset_command(self):
        args = build_parser().parse_args(["dataset", "thai", "--scale", "0.1"])
        assert args.command == "dataset"
        assert args.scale == 0.1

    def test_run_command(self):
        args = build_parser().parse_args(
            ["run", "thai", "limited-distance", "--n", "3", "--prioritized"]
        )
        assert args.strategy == "limited-distance"
        assert args.n == 3
        assert args.prioritized

    def test_run_concurrency_and_timing_flags(self):
        args = build_parser().parse_args(
            [
                "run", "thai", "breadth-first",
                "--concurrency", "8", "--latency", "0.01", "--politeness", "0.2",
            ]
        )
        assert args.concurrency == 8
        assert args.latency == 0.01
        assert args.politeness == 0.2
        assert args.bandwidth is None

    def test_figure_command(self):
        args = build_parser().parse_args(["figure", "6", "--chart"])
        assert args.number == "6"
        assert args.chart

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dataset", "french"])

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])


class TestExecution:
    def test_dataset_prints_table3(self, capsys):
        code = main(["dataset", "thai", "--scale", "0.03", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relevance_ratio" in out
        assert "thai" in out

    def test_run_prints_summary(self, capsys):
        code = main(
            ["run", "thai", "hard-focused", "--scale", "0.03", "--no-cache", "--max-pages", "200"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hard-focused" in out
        assert "final_coverage" in out

    def test_run_limited_distance(self, capsys):
        code = main(
            [
                "run", "thai", "limited-distance", "--n", "1", "--prioritized",
                "--scale", "0.03", "--no-cache", "--max-pages", "100",
            ]
        )
        assert code == 0
        assert "prioritized-limited-distance(N=1)" in capsys.readouterr().out

    def test_run_with_concurrency(self, capsys):
        code = main(
            [
                "run", "thai", "breadth-first", "--scale", "0.03", "--no-cache",
                "--max-pages", "100", "--concurrency", "4", "--politeness", "0.1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "breadth-first" in out
        assert "final_coverage" in out

    def test_unknown_strategy_reports_error(self, capsys):
        code = main(["run", "thai", "teleport", "--scale", "0.03", "--no-cache"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--sample-interval", "0"], "sample_interval"),
            (["--max-pages", "-1"], "max_pages"),
        ],
    )
    def test_out_of_range_config_knob_is_an_error(self, capsys, flags, named):
        code = main(["run", "thai", "soft-focused", "--scale", "0.03", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err

    def test_unknown_strategy_error_names_available_options(self, capsys):
        code = main(["run", "thai", "teleport", "--scale", "0.03", "--no-cache"])
        assert code == 1
        err = capsys.readouterr().err
        assert "unknown strategy 'teleport'" in err
        for name in available_strategies():
            assert name in err

    def test_detect_on_file(self, tmp_path, capsys):
        path = tmp_path / "thai.txt"
        path.write_bytes("ภาษาไทยมีวรรณยุกต์และสระ".encode("tis_620"))
        assert main(["detect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "TIS-620" in out
        assert "thai" in out

    def test_figure_command_small(self, capsys):
        code = main(["figure", "5", "--dataset", "thai", "--scale", "0.03", "--no-cache"])
        assert code == 0
        assert "Figure 5" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_prints_evidence(self, capsys):
        code = main(["analyze", "thai", "--scale", "0.03", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert "locality_lift" in out
        assert "Degree structure" in out


class TestReproduceCommand:
    def test_reproduce_writes_report(self, tmp_path, capsys):
        code = main(["reproduce", str(tmp_path / "out"), "--scale", "0.03", "--no-cache"])
        assert code == 0
        assert (tmp_path / "out" / "REPORT.md").exists()
        assert (tmp_path / "out" / "gnuplot" / "fig3.gp").exists()
        out = capsys.readouterr().out
        assert "REPORT.md" in out


class TestListStrategies:
    def test_lists_every_registered_strategy_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--list-strategies"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for name, description in available_strategies().items():
            assert name in out
            assert description in out

    def test_combined_and_context_strategies_are_listed(self, capsys):
        """Regression: hard+limited / soft+limited were importable-only
        helpers, invisible to --list-strategies (and the CLI/wire)."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--list-strategies"])
        out = capsys.readouterr().out
        for name in (
            "hard+limited",
            "soft+limited",
            "pdd-hybrid",
            "pal-content-link",
            "infospiders",
        ):
            assert name in out


class TestExtendedStrategyNames:
    def test_run_backlink_count(self, capsys):
        code = main(
            ["run", "thai", "backlink-count", "--scale", "0.03", "--no-cache", "--max-pages", "150"]
        )
        assert code == 0
        assert "backlink-count" in capsys.readouterr().out

    def test_run_distilled_soft(self, capsys):
        code = main(
            ["run", "thai", "distilled-soft", "--scale", "0.03", "--no-cache", "--max-pages", "150"]
        )
        assert code == 0
        assert "distilled-soft" in capsys.readouterr().out

    def test_run_soft_limited_with_n(self, capsys):
        code = main(
            [
                "run", "thai", "soft+limited", "--n", "1",
                "--scale", "0.03", "--no-cache", "--max-pages", "150",
            ]
        )
        assert code == 0
        assert "soft+limited(N=1)" in capsys.readouterr().out

    def test_run_pdd_hybrid(self, capsys):
        code = main(
            ["run", "thai", "pdd-hybrid", "--scale", "0.03", "--no-cache", "--max-pages", "150"]
        )
        assert code == 0
        assert "pdd-hybrid(thai)" in capsys.readouterr().out


class TestAdversaryFlags:
    def test_parser_accepts_adversary_and_defense_flags(self):
        args = build_parser().parse_args(
            [
                "run", "thai", "breadth-first",
                "--adversary", "profile.json", "--adversary-seed", "9",
                "--defenses", "--max-url-depth", "3",
                "--host-page-budget", "10", "--max-redirect-hops", "4",
            ]
        )
        assert args.adversary == "profile.json"
        assert args.adversary_seed == 9
        assert args.defenses
        assert args.max_url_depth == 3
        assert args.host_page_budget == 10
        assert args.max_redirect_hops == 4

    def test_run_with_adversary_prints_adversary_table(self, tmp_path, capsys):
        profile = tmp_path / "adversary.json"
        profile.write_text(
            '{"seed": 3, "profile": {"trap_host_rate": 0.3, "trap_fanout": 3}}'
        )
        code = main(
            [
                "run", "thai", "breadth-first", "--scale", "0.03", "--no-cache",
                "--max-pages", "150", "--adversary", str(profile), "--defenses",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Adversary" in out
        assert "inj_trap_pages" in out
        assert "depth_skips" in out

    def test_adversary_seed_overrides_profile_seed(self, tmp_path, capsys):
        profile = tmp_path / "adversary.json"
        profile.write_text('{"soft404_rate": 0.5}')
        code = main(
            [
                "run", "thai", "breadth-first", "--scale", "0.03", "--no-cache",
                "--max-pages", "100", "--adversary", str(profile),
                "--adversary-seed", "11",
            ]
        )
        assert code == 0
        assert "Adversary" in capsys.readouterr().out

    def test_defense_override_flags_arm_defenses_alone(self, capsys):
        # A lone override flag arms defenses without --defenses.
        code = main(
            [
                "run", "thai", "breadth-first", "--scale", "0.03", "--no-cache",
                "--max-pages", "100", "--max-url-depth", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Adversary" in out
        assert "depth_skips" in out

    def test_missing_adversary_profile_reports_error(self, tmp_path, capsys):
        code = main(
            [
                "run", "thai", "breadth-first", "--scale", "0.03", "--no-cache",
                "--adversary", str(tmp_path / "nope.json"),
            ]
        )
        assert code == 1
        assert "cannot read adversary model" in capsys.readouterr().err


class TestDatasetStoreCommands:
    """`lswc-sim dataset build` / `dataset inspect` on columnar stores."""

    def test_build_writes_store_and_reports_counts(self, tmp_path, capsys):
        out_path = tmp_path / "thai.lswc"
        code = main(["dataset", "build", "thai", "--scale", "0.02", "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "wrote" in out and "pages" in out and "capture=none" in out

    def test_build_captured_store(self, tmp_path, capsys):
        out_path = tmp_path / "thai-cap.lswc"
        code = main(
            [
                "dataset", "build", "thai", "--scale", "0.02",
                "--capture", "soft-limited", "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "capture=soft-limited" in capsys.readouterr().out

    def test_inspect_prints_header_and_sections(self, tmp_path, capsys):
        out_path = tmp_path / "thai.lswc"
        assert main(["dataset", "build", "thai", "--scale", "0.02", "--out", str(out_path)]) == 0
        capsys.readouterr()
        code = main(["dataset", "inspect", str(out_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Page store" in out
        assert "url_arena" in out
        assert "fingerprint" in out
        assert "Decoded-URL cache" in out and "hit_ratio" in out and "evictions" in out
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.strip()}
        assert rows["link_arena"][0] == "<i2" and rows["url_hash"][0] == "<u8"
        assert all(rows[name][-1] == "ok" for name in ("status", "url_arena", "url_hash_order"))
        assert rows["name"][-2] == "format" and rows["thai-x0.02"][-2] == "2"

    def test_inspect_a_v1_store_says_its_sections_are_unchecked(self, capsys):
        assert main(["dataset", "inspect", str(V1_STORE_FIXTURE)]) == 0
        out = capsys.readouterr().out
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.strip()}
        assert rows["link_arena"] == ["<i8", "67128", "unchecked"]
        assert all(rows[name][-1] == "unchecked" for name in ("status", "url_arena", "url_hash"))
        assert rows["thai-x0.02"][-2] == "1"

    def test_build_without_out_errors(self, capsys):
        code = main(["dataset", "build", "thai"])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    def test_build_without_profile_errors(self, capsys):
        code = main(["dataset", "build"])
        assert code == 2
        assert "needs a profile" in capsys.readouterr().err

    def test_inspect_without_target_errors(self, capsys):
        code = main(["dataset", "inspect"])
        assert code == 2
        assert "store file" in capsys.readouterr().err

    def test_inspect_garbage_file_reports_error(self, tmp_path, capsys):
        junk = tmp_path / "junk.lswc"
        junk.write_bytes(b"this is not a page store")
        code = main(["dataset", "inspect", str(junk)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
