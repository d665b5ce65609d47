"""Tests for the ``repro system`` command-line interface and the
shared sweep-flag surface of the family-driven parsers."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.sweep.system_spec import SYSTEM_PRESETS

SMOKE = ["--trefi", "96", "--jobs", "1", "--quiet"]


def run_system_sweep_cli(tmp_path, *extra, preset="system-smoke"):
    out = tmp_path / "BENCH_system.json"
    argv = ["system", "sweep", preset, *SMOKE, "--out", str(out),
            "--cache-root", str(tmp_path / "cache"), *extra]
    return main(argv), out


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["system", "run"])
        assert args.clients == 1
        assert args.channels == 1
        assert args.attacker is None
        assert args.policy == "moat"
        assert args.trefi == 1024

    def test_sweep_defaults(self):
        args = build_parser().parse_args(
            ["system", "sweep", "system-smoke"]
        )
        assert args.preset == "system-smoke"
        assert not args.check

    def test_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["system"])

    def test_adaptive_attacker_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["system", "run", "--attacker", "feinting"]
            )


class TestListPresets:
    def test_lists_every_preset(self, capsys):
        assert main(["system", "sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name, spec in SYSTEM_PRESETS.items():
            assert re.search(rf"{re.escape(name)}\s+{len(spec.points())}\s",
                             out), name

    def test_sweep_list_flag_matches(self, capsys):
        assert main(["system", "sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in SYSTEM_PRESETS:
            assert name in out


class TestRun:
    def test_reports_per_client_rows(self, capsys):
        assert main(["system", "run", "--clients", "2", "--trefi", "64",
                     "--banks", "2", "--jobs", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        for needle in ("tenant0", "tenant1", "SYSTEM", "p99 ns",
                       "2 clients x 1 channels"):
            assert needle in out

    def test_attacker_joins_the_mix(self, capsys):
        assert main(["system", "run", "--clients", "1",
                     "--attacker", "kernel-single",
                     "--attacker-acts", "50000", "--ath", "32",
                     "--trefi", "64", "--banks", "2",
                     "--jobs", "1", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "attacker" in out
        assert "ALERTs" in out

    def test_bad_client_count_is_usage_error(self, capsys):
        assert main(["system", "run", "--clients", "0"]) == 2
        assert "error" in capsys.readouterr().err


class TestSweep:
    def test_artifact_written(self, tmp_path, capsys):
        code, out = run_system_sweep_cli(tmp_path)
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.system/v1"
        assert artifact["preset"] == "system-smoke"
        point = next(iter(artifact["points"].values()))
        assert point["n_trefi"] == 96
        assert any(":" in k for k in point["metrics"])
        stdout = capsys.readouterr().out
        assert "System sweep system-smoke" in stdout

    def test_unknown_preset(self, capsys):
        assert main(["system", "sweep", "system-nope", "--quiet"]) == 2
        assert "unknown system preset" in capsys.readouterr().err

    def test_write_baseline_then_check_passes(self, tmp_path, capsys):
        baseline = tmp_path / "system_system-smoke.json"
        code, _ = run_system_sweep_cli(
            tmp_path, "--write-baselines", "--baseline", str(baseline)
        )
        assert code == 0 and baseline.is_file()
        code, _ = run_system_sweep_cli(
            tmp_path, "--check", "--baseline", str(baseline),
        )
        assert code == 0
        assert "baseline check passed" in capsys.readouterr().err

    def test_check_fails_on_drifted_per_client_metric(self, tmp_path,
                                                      capsys):
        baseline = tmp_path / "system_system-smoke.json"
        code, _ = run_system_sweep_cli(
            tmp_path, "--write-baselines", "--baseline", str(baseline)
        )
        assert code == 0
        data = json.loads(baseline.read_text())
        key = next(iter(data["points"]))
        metrics = data["points"][key]["metrics"]
        client_key = next(k for k in metrics if k.endswith(":read_p99_ns"))
        metrics[client_key] *= 3.0
        baseline.write_text(json.dumps(data))
        code, _ = run_system_sweep_cli(
            tmp_path, "--check", "--baseline", str(baseline)
        )
        assert code == 1
        assert "BASELINE CHECK FAILED" in capsys.readouterr().err

    def test_cache_hits_on_rerun(self, tmp_path, capsys):
        run_system_sweep_cli(tmp_path)
        capsys.readouterr()
        code, _ = run_system_sweep_cli(tmp_path)
        assert code == 0
        assert "3 cached" in capsys.readouterr().out


class TestSharedFlagSurface:
    """One flag set, one spelling each: every family sweep accepts the
    same flags."""

    FAMILY_SWEEPS = (
        ["sweep", "table5"],
        ["attack", "sweep", "fig5"],
        ["model", "sweep", "fig8"],
        ["mc", "sweep", "mc-smoke"],
        ["system", "sweep", "system-smoke"],
    )

    @pytest.mark.parametrize("argv", FAMILY_SWEEPS,
                             ids=lambda argv: argv[0])
    def test_common_flags_parse_everywhere(self, argv):
        parser = build_parser()
        args = parser.parse_args(
            argv + ["--check", "--cache-root", "/tmp/x", "--quiet",
                    "--jobs", "2"]
        )
        assert args.check and args.quiet
        assert args.cache_root == "/tmp/x"
        # The gate is exact: there is no tolerance to set.
        assert not hasattr(args, "rtol") and not hasattr(args, "atol")

    @pytest.mark.parametrize("argv", FAMILY_SWEEPS,
                             ids=lambda argv: argv[0])
    def test_check_and_write_are_exclusive(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                argv + ["--check", "--write-baselines"]
            )

    @pytest.mark.parametrize("argv", FAMILY_SWEEPS,
                             ids=lambda argv: argv[0])
    def test_list_presets_spellings(self, argv, capsys):
        family_argv = argv[:-1]  # drop the preset
        assert main(family_argv + ["--list-presets"]) == 0
        assert capsys.readouterr().out

    def test_cache_root_routes_per_family(self, tmp_path, capsys):
        assert build_parser().parse_args(
            ["system", "sweep", "system-smoke"]).cache_root == ".repro-cache"
        code, _ = run_system_sweep_cli(tmp_path)
        assert code == 0
        assert (tmp_path / "cache" / "system").is_dir()


class TestScheds:
    def test_sched_flag_reaches_the_system_run(self, capsys):
        assert main(["system", "run", "--clients", "2",
                     "--sched", "bw-cap:gbps=8,gbps1=0.5",
                     "--trefi", "64", "--banks", "2", "--jobs", "1",
                     "--quiet"]) == 0
        assert "bw-cap(gbps=8,gbps1=0.5)" in capsys.readouterr().out

    def test_indexed_param_beyond_clients_is_a_usage_error(self, capsys):
        assert main(["system", "run", "--clients", "2",
                     "--sched", "bw-cap:gbps5=0.5",
                     "--trefi", "64", "--banks", "2", "--jobs", "1",
                     "--quiet"]) == 2
        assert "targets client 5" in capsys.readouterr().err
