"""Tests for the CLI and the abstract-claims efficiency analysis."""

import json

import pytest

from repro.analysis.efficiency import (
    ClaimCheck,
    abstract_claims,
    energy_per_inference_j,
)
from repro.harness.cli import build_parser, main
from repro.serving import ServeRequest, request_to_json
from repro.workloads.deepbench import task


class TestClaimCheck:
    def test_approx_band(self):
        assert ClaimCheck("x", 30.0, 39.0).holds
        assert ClaimCheck("x", 30.0, 16.0).holds
        assert not ClaimCheck("x", 30.0, 5.0).holds
        assert not ClaimCheck("x", 30.0, 100.0).holds

    def test_at_least_direction(self):
        assert ClaimCheck("x", 60.0, 148.0, direction="at_least").holds
        assert ClaimCheck("x", 60.0, 31.0, direction="at_least").holds
        assert not ClaimCheck("x", 60.0, 20.0, direction="at_least").holds

    def test_energy_per_inference(self):
        assert energy_per_inference_j(0.001, 100.0) == pytest.approx(0.1)


class TestAbstractClaims:
    @pytest.fixture(scope="class")
    def report(self):
        return abstract_claims()

    def test_every_claim_holds(self, report):
        failing = [c.claim for c in report.checks if not c.holds]
        assert not failing, f"claims failing the shape band: {failing}"

    def test_contains_all_six_claims(self, report):
        assert len(report.checks) == 6
        claims = " ".join(c.claim for c in report.checks)
        for token in ("V100", "Brainwave", "CPU", "area", "power", "energy"):
            assert token in claims

    def test_area_claim_exact(self, report):
        area = next(c for c in report.checks if "area" in c.claim)
        assert area.measured == pytest.approx(815 / 494.37, rel=1e-6)

    def test_power_claim_from_tdp(self, report):
        power = next(c for c in report.checks if "power" in c.claim)
        assert power.measured == pytest.approx(300 / 160, rel=1e-6)

    def test_text_rendering(self, report):
        assert "Abstract claims" in report.text
        assert "yes" in report.text
        assert all(c.holds for c in report.checks)


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for cmd in ("table3", "table6", "figure4", "figure6", "claims", "all"):
            args = parser.parse_args([cmd])
            assert callable(args.fn)

    def test_serve_args(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "lstm", "1024"])
        assert args.kind == "lstm"
        assert args.hidden == 1024
        assert args.timesteps is None

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_main_table3(self, capsys):
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "192" in out and "384" in out

    def test_main_figure7(self, capsys):
        assert main(["figure7"]) == 0
        assert "PMU PCU PMU" in capsys.readouterr().out

    def test_main_figure6(self, capsys):
        assert main(["figure6"]) == 0
        assert "folded" in capsys.readouterr().out

    def test_main_serve(self, capsys):
        assert main(["serve", "lstm", "256"]) == 0
        out = capsys.readouterr().out
        assert "plasticine" in out and "brainwave" in out

    def test_main_serve_custom_timesteps(self, capsys):
        assert main(["serve", "lstm", "333", "7"]) == 0
        assert "lstm-h333-t7" in capsys.readouterr().out

    def test_serve_single_platform(self, capsys):
        assert main(["serve", "lstm", "512", "--platform", "brainwave"]) == 0
        out = capsys.readouterr().out
        assert "brainwave" in out
        assert "plasticine" not in out

    def test_serve_defaults_without_task(self, capsys):
        # The CI smoke invocation: platform only, default lstm-512 task.
        assert main(["serve", "--platform", "plasticine"]) == 0
        assert "lstm-h512-t25" in capsys.readouterr().out

    def test_serve_unknown_platform_errors(self, capsys):
        assert main(["serve", "lstm", "512", "--platform", "tpu"]) == 1
        assert "unknown platform" in capsys.readouterr().err

    def test_serve_stream_mode(self, capsys):
        assert main(
            ["serve", "lstm", "512", "--platform", "gpu", "--stream",
             "--rate", "200", "--requests", "50", "--slo-ms", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "P99 ms" in out and "200 req/s" in out

    def test_serve_stream_fleet(self, capsys):
        assert main(
            ["serve", "lstm", "512", "--platform", "brainwave", "--stream",
             "--rate", "500", "--requests", "50", "--replicas", "2",
             "--policy", "round-robin"]
        ) == 0
        assert "2 replica(s), round-robin" in capsys.readouterr().out

    def test_serve_stream_mix_scheduler(self, capsys):
        assert main(
            ["serve", "--platform", "gpu", "--stream", "--scheduler", "edf",
             "--mix", "lstm:512@5,gru:512:1@20^1", "--rate", "400",
             "--requests", "60", "--slo-ms", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "2-tenant mix" in out and "edf" in out
        assert "Per-tenant breakdown (gpu)" in out
        assert "lstm-h512-t25" in out and "gru-h512-t1" in out

    def test_serve_stream_bad_mix_errors(self, capsys):
        assert main(
            ["serve", "--platform", "gpu", "--stream", "--mix", "lstm"]
        ) == 1
        assert "bad --mix entry" in capsys.readouterr().err

    def test_serve_stream_trace_round_trip(self, capsys, tmp_path):
        trace = str(tmp_path / "stream.jsonl")
        assert main(
            ["serve", "lstm", "512", "--platform", "gpu", "--stream",
             "--rate", "300", "--requests", "40", "--record-trace", trace]
        ) == 0
        first = capsys.readouterr().out
        assert f"[trace recorded: {trace}]" in first
        assert main(
            ["serve", "--platform", "gpu", "--stream", "--trace", trace]
        ) == 0
        second = capsys.readouterr().out
        # Replay reproduces the generated stream's table verbatim.
        assert first.splitlines()[1:4] == second.splitlines()[1:4]

    @pytest.mark.parametrize(
        "field,value,flags",
        [
            ("tenant", [1], []),
            ("priority", "12", ["--scheduler", "priority"]),
            ("hidden", 512.5, []),
            ("request_id", float("nan"), []),
            ("priority", True, []),
        ],
    )
    def test_serve_trace_mistyped_field_is_one_error_line(
        self, capsys, tmp_path, field, value, flags
    ):
        # Regression: these used to die with a TypeError traceback (list
        # tenant, string priority) or be served as they were.
        rec = request_to_json(ServeRequest(task=task("lstm", 512, 25)))
        trace = tmp_path / "bad.jsonl"
        trace.write_text(json.dumps({**rec, field: value}) + "\n")
        assert main(
            ["serve", "--platform", "gpu", "--stream", "--trace", str(trace), *flags]
        ) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "trace line 1" in err[0] and field in err[0], err

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["tableX"])

    def test_help_lists_registered_names(self):
        # Choices come from the live registries, so plugin registrations
        # show up without touching the CLI.
        parser = build_parser()
        serve = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if "serving engine" in (a.description or "")
        )
        text = serve.format_help()
        for name in ("plasticine", "brainwave", "cpu", "gpu"):
            assert name in text
        for name in ("fifo", "edf", "coalesce", "sjf", "priority"):
            assert name in text
        for name in ("none", "size-cap", "time-window", "adaptive"):
            assert name in text
        assert "docs/CLI.md" in text

    def test_serve_stream_batched(self, capsys):
        assert main(
            ["serve", "lstm", "512", "--platform", "gpu", "--stream",
             "--rate", "2000", "--requests", "60", "--batcher", "size-cap",
             "--max-batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "mean batch" in out
        assert "size-cap batching <= 4" in out

    def test_serve_stream_fleet_mix_modes_agree(self, capsys):
        # A mixed fleet from the CLI in both report modes: the capacity,
        # energy and cost cells come from the same formulas over the
        # same stream, so they print identically.
        argv = ["serve", "gru", "2816", "25", "--stream", "--fleet-mix",
                "plasticine:2,brainwave:1,gpu:1", "--policy", "least-loaded",
                "--rate", "6000", "--requests", "500", "--slo-ms", "5"]
        cells = {}
        for mode in ("full", "summary"):
            assert main([*argv, "--mode", mode]) == 0
            lines = capsys.readouterr().out.splitlines()
            header = [c.strip() for c in lines[1].split("|")]
            row = [c.strip() for c in lines[3].split("|")]
            assert row[0] == "plasticine:2,brainwave:1,gpu:1"
            cells[mode] = {
                name: row[header.index(name)]
                for name in ("max req/s", "J/req", "$/1M req")
            }
        assert cells["full"] == cells["summary"]

    def test_serve_stream_single_entry_fleet_mix_is_one_replica(self, capsys):
        # "--fleet-mix gpu" is a one-replica roster, as the title says:
        # its capacity matches the single-engine run's.
        argv = ["serve", "--stream", "--rate", "500", "--requests", "50"]
        capacity = {}
        for extra in (["--fleet-mix", "gpu"], ["--platform", "gpu"]):
            assert main([*argv, *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert "1 replica(s)" in lines[0]
            header = [c.strip() for c in lines[1].split("|")]
            row = [c.strip() for c in lines[3].split("|")]
            capacity[extra[0]] = row[header.index("max req/s")]
        assert capacity["--fleet-mix"] == capacity["--platform"]

    def test_serve_stream_unknown_batcher_exits(self):
        with pytest.raises(SystemExit):
            main(["serve", "--stream", "--batcher", "megabatch"])

    def test_serve_stream_autoscale(self, capsys):
        assert main(
            ["serve", "lstm", "512", "--platform", "gpu", "--stream",
             "--rate", "4000", "--requests", "200", "--autoscale", "1:4"]
        ) == 0
        out = capsys.readouterr().out
        assert "autoscale 1:4" in out
        assert "Scale events (gpu" in out

    def test_serve_stream_bad_autoscale_errors(self, capsys):
        assert main(
            ["serve", "--platform", "gpu", "--stream", "--autoscale", "lots"]
        ) == 1
        assert "bad --autoscale spec" in capsys.readouterr().err
