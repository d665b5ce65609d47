"""Tests for the ``repro sweep`` command-line interface."""

import json
import math
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.sweep.spec import PRESETS

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"

SMOKE = ["--trefi", "256", "--workloads", "tc,roms", "--jobs", "1", "--quiet"]


def run_sweep_cli(tmp_path, *extra, preset="table5"):
    out = tmp_path / "BENCH_sweep.json"
    argv = ["sweep", preset, *SMOKE, "--out", str(out),
            "--cache-root", str(tmp_path / "cache"), *extra]
    return main(argv), out


class TestParser:
    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep", "fig11"])
        assert args.preset == "fig11"
        assert args.jobs >= 1
        assert not args.check

    def test_bad_jobs_type_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "fig11", "--jobs", "two"])

    def test_check_and_write_baseline_mutually_exclusive(self):
        """Combining the gate with baseline regeneration would let a
        regressed run overwrite its own baseline and pass."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "fig11", "--check", "--write-baselines"]
            )


class TestList:
    def test_lists_every_preset(self, capsys):
        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_preset_required_without_list(self, capsys):
        assert main(["sweep", "--quiet"]) == 2

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["sweep", "fig99", "--quiet"]) == 2
        assert "unknown sweep preset" in capsys.readouterr().err


class TestRun:
    def test_golden_output_shape(self, tmp_path, capsys):
        code, out = run_sweep_cli(tmp_path)
        assert code == 0
        stdout = capsys.readouterr().out
        # Table header, per-point rows, aggregate row.
        for column in ["workload", "policy", "ATH", "ETH", "slowdown",
                       "ALERT/tREFI"]:
            assert column in stdout
        assert "Sweep table5 (n_trefi=256" in stdout
        assert stdout.count("roms") == 4  # one row per ETH value
        assert "AVERAGE" in stdout

    def test_artifact_written(self, tmp_path):
        code, out = run_sweep_cli(tmp_path)
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.sweep/v1"
        assert artifact["preset"] == "table5"
        assert len(artifact["points"]) == 8  # 2 workloads x 4 ETH values

    def test_rerun_uses_cache(self, tmp_path, capsys):
        run_sweep_cli(tmp_path)
        capsys.readouterr()
        code, _ = run_sweep_cli(tmp_path)
        assert code == 0
        assert "8 cached" in capsys.readouterr().out


class TestBaselineGate:
    def test_write_baseline_then_check_passes(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, _ = run_sweep_cli(
            tmp_path, "--baseline", str(baseline), "--write-baselines"
        )
        assert code == 0 and baseline.is_file()
        code, _ = run_sweep_cli(tmp_path, "--baseline", str(baseline), "--check")
        assert code == 0

    def test_check_fails_on_metric_regression(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        run_sweep_cli(tmp_path, "--baseline", str(baseline),
                      "--write-baselines")
        data = json.loads(baseline.read_text())
        key = next(k for k in data["points"] if k.startswith("roms"))
        data["points"][key]["metrics"]["slowdown"] += 0.5
        baseline.write_text(json.dumps(data))
        capsys.readouterr()
        code, _ = run_sweep_cli(tmp_path, "--baseline", str(baseline), "--check")
        assert code == 1
        err = capsys.readouterr().err
        assert "BASELINE CHECK FAILED" in err
        assert "metric regression" in err

    def test_check_fails_when_baseline_missing(self, tmp_path, capsys):
        code, _ = run_sweep_cli(
            tmp_path, "--baseline", str(tmp_path / "nope.json"), "--check"
        )
        assert code == 1
        assert "baseline not found" in capsys.readouterr().err

    def test_check_fails_on_scale_mismatch(self, tmp_path, capsys):
        """A baseline written at one n_trefi rejects a run at another."""
        baseline = tmp_path / "baseline.json"
        run_sweep_cli(tmp_path, "--baseline", str(baseline),
                      "--write-baselines")
        out = tmp_path / "other.json"
        argv = ["sweep", "table5", "--trefi", "128", "--workloads", "tc,roms",
                "--jobs", "1", "--quiet", "--out", str(out),
                "--cache-root", str(tmp_path / "cache"),
                "--baseline", str(baseline), "--check"]
        assert main(argv) == 1
        assert "missing from baseline" in capsys.readouterr().err

    def test_gate_is_exact(self, tmp_path, capsys):
        """The committed table1 baseline passes, and moving one of its
        metrics by one ulp fails the gate."""
        baseline = tmp_path / "model_table1.json"
        shutil.copy(BASELINES / "model_table1.json", baseline)
        argv = ["model", "sweep", "table1", "--no-cache", "--quiet",
                "--check", "--baseline", str(baseline),
                "--out", str(tmp_path / "out.json")]
        assert main(argv) == 0
        data = json.loads(baseline.read_text())
        metrics = next(iter(data["points"].values()))["metrics"]
        metrics["t_rc_ns"] = math.nextafter(metrics["t_rc_ns"], math.inf)
        baseline.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(argv) == 1
        assert "metric regression" in capsys.readouterr().err


class TestOverrides:
    def test_model_sweep_refuses_a_seed(self, tmp_path, capsys):
        """Model points have no seed axis: ``--seed`` is a usage error
        naming it, and no artifact is written."""
        out = tmp_path / "model.json"
        code = main(["model", "sweep", "fig8", "--seed", "7", "--quiet",
                     "--no-cache", "--out", str(out)])
        assert code == 2
        assert "has no seed axis" in capsys.readouterr().err
        assert not out.exists()

    def test_attack_sweep_refuses_a_seed(self, tmp_path, capsys):
        """No registered attack reads a seed: ``--seed`` would run the
        same points again under other keys, so it is a usage error."""
        out = tmp_path / "attack.json"
        code = main(["attack", "sweep", "fig5", "--seed", "1", "--quiet",
                     "--no-cache", "--out", str(out)])
        assert code == 2
        assert "no seed axis" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, has_seed_axis", [
        (["sweep"], True),
        (["attack", "sweep"], False),
        (["model", "sweep"], False),
        (["mc", "sweep"], True),
        (["system", "sweep"], True),
    ], ids=["sweep", "attack", "model", "mc", "system"])
    def test_help_offers_seed_only_with_a_seed_axis(
        self, argv, has_seed_axis, capsys
    ):
        """``--help`` lists ``--seed`` only for the families whose specs
        take it; the others still parse it, to refuse it by name."""
        with pytest.raises(SystemExit) as exited:
            main(argv + ["--help"])
        assert exited.value.code == 0
        assert ("--seed" in capsys.readouterr().out) == has_seed_axis

    @pytest.mark.parametrize("argv", [
        ["sweep", "fig11"],
        ["model", "sweep", "table4"],
        ["mc", "sweep", "mc-smoke"],
        ["system", "sweep", "system-smoke"],
    ], ids=lambda argv: argv[0])
    def test_trefi_must_be_positive(self, argv, capsys):
        assert main(argv + ["--trefi", "0", "--quiet", "--no-cache"]) == 2
        assert "--trefi must be positive" in capsys.readouterr().err

    def test_attack_sweep_takes_no_window(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["attack", "sweep", "fig5", "--trefi", "512"])
