"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_choices(self):
        args = build_parser().parse_args(["attack", "run", "jailbreak"])
        assert args.name == "jailbreak"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "run", "nonexistent"])


class TestJobsFlag:
    """Every ``--jobs`` (sweeps, ``system run``, ``report``) takes one
    argparse type: a worker count below 1 is a usage error."""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", [
        ["system", "run", "--trefi", "32", "--banks", "2", "--quiet"],
        ["mc", "sweep", "mc-smoke", "--trefi", "32", "--no-cache",
         "--quiet"],
        ["report", "run", "fig16", "--no-cache", "--quiet"],
    ], ids=["system-run", "mc-sweep", "report-run"])
    def test_below_one_is_rejected(self, command, jobs, tmp_path, capsys):
        outputs = {
            "system": [],
            "mc": ["--out", str(tmp_path / "out.json")],
            "report": ["--out", str(tmp_path / "out.json"),
                       "--md", str(tmp_path / "out.md")],
        }[command[0]]
        with pytest.raises(SystemExit) as exc:
            main([*command, *outputs, "--jobs", jobs])
        assert exc.value.code == 2
        assert (f"argument --jobs: must be at least 1, got {jobs}"
                in capsys.readouterr().err)

    def test_positive_and_malformed_values(self, capsys):
        args = build_parser().parse_args(["system", "run", "--jobs", "3"])
        assert args.jobs == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["system", "run", "--jobs", "x"])
        assert "invalid positive_int value: 'x'" in capsys.readouterr().err


class TestModelCommands:
    def test_table2(self, capsys):
        assert main(["model", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Feinting" in out
        assert "2,198" in out or "2198" in out

    def test_safe_trh(self, capsys):
        assert main(["model", "safe-trh"]) == 0
        out = capsys.readouterr().out
        assert "99" in out

    def test_throughput(self, capsys):
        assert main(["model", "throughput"]) == 0
        out = capsys.readouterr().out
        assert "2.8x" in out


class TestWorkloadsCommand:
    def test_lists_all_21(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "roms" in out and "ConnComp" in out
        assert len([l for l in out.splitlines() if l.strip()]) >= 23


class TestAttackCommands:
    # The full attack run/sweep/list surface is covered by
    # tests/test_cli_attack.py; this keeps one end-to-end smoke here.
    def test_postponement(self, capsys):
        assert main(["attack", "run", "postponement"]) == 0
        out = capsys.readouterr().out
        assert "329" in out


class TestPerfCommand:
    def test_quiet_workload(self, capsys):
        assert main(["perf", "tc", "--trefi", "512"]) == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "TriCount" in out


class TestRegistryDrivenListings:
    def test_list_policies_matches_registry(self, capsys):
        from repro.mitigations.registry import policy_kinds

        assert main(["perf", "--list-policies"]) == 0
        out = capsys.readouterr().out
        for kind in policy_kinds():
            assert kind in out

    def test_list_presets_matches_presets(self, capsys):
        from repro.sweep.spec import PRESETS

        assert main(["sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_perf_without_workload_errors(self, capsys):
        assert main(["perf"]) == 2
        assert "workload" in capsys.readouterr().err


class TestPerfChannels:
    def test_channels_flag(self, capsys):
        assert main(["perf", "tc", "--trefi", "128", "--channels", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 sub-channels" in out

    def test_channels_must_be_positive(self, capsys):
        assert main(["perf", "tc", "--channels", "0"]) == 2


class TestTraceCommands:
    def test_synth_info_perf_roundtrip(self, tmp_path, capsys):
        out_path = str(tmp_path / "tc.trace.jsonl")
        assert main(["trace", "synth", "tc", "--trefi", "32",
                     "--banks", "1", "--out", out_path]) == 0
        capsys.readouterr()
        assert main(["trace", "info", out_path]) == 0
        info = capsys.readouterr().out
        assert "address" in info
        assert main(["perf", "--trace", out_path, "--trefi", "32"]) == 0
        perf_out = capsys.readouterr().out
        assert "slowdown" in perf_out
        assert "tc" in perf_out

    def test_perf_rejects_activation_trace(self, tmp_path, capsys):
        from repro.trace import ActivationTrace

        path = tmp_path / "act.jsonl"
        ActivationTrace(events=[(0.0, 0, 1)]).save(path)
        assert main(["perf", "--trace", str(path)]) == 2
        assert "address trace" in capsys.readouterr().err

    def test_synth_requires_workload(self, capsys):
        assert main(["trace", "synth"]) == 2
