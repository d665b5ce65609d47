"""Tests for the ``python -m repro`` command-line interface."""

import argparse
import re

import pytest

from repro.cli import build_parser, main


def leaf_commands(parser, path=()):
    """``(command, parser)`` of every leaf command under ``parser``."""
    groups = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    if not groups:
        yield " ".join(path), parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from leaf_commands(sub, path + (name,))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_choices(self):
        args = build_parser().parse_args(["attack", "run", "jailbreak"])
        assert args.name == "jailbreak"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "run", "nonexistent"])

    def test_one_spelling_per_flag_and_one_sweep_flag_set(self):
        """Every option has one spelling, and the five family sweep
        commands take the same flags apart from their override axes."""
        leaves = dict(leaf_commands(build_parser()))
        doubled = [
            (command, action.option_strings)
            for command, parser in leaves.items()
            for action in parser._actions
            if len(action.option_strings) > 1
            and not isinstance(action, argparse._HelpAction)
        ]
        assert doubled == []
        flag_sets = {
            frozenset(
                option for action in leaves[command]._actions
                for option in action.option_strings
            ) - {"--trefi", "--workloads"}
            for command in ("sweep", "attack sweep", "model sweep",
                            "mc sweep", "system sweep")
        }
        assert len(flag_sets) == 1


class TestErrorPath:
    """A bad name, value or path ends every command the same way: one
    ``error:`` line on stderr and exit 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["perf", "roms", "--trefi", "0"],
        ["perf", "roms", "--ath", "64", "--eth", "100", "--trefi", "8"],
        ["perf", "bogus"],
        ["perf", "--trace", "MISSING"],
        ["perf", "--trace", "MALFORMED"],
        ["trace", "synth", "bogus"],
        ["trace", "info", "MISSING"],
        ["trace", "info", "MALFORMED"],
        ["mc", "run", "--trace", "MISSING", "--trefi", "4"],
    ], ids=lambda argv: "-".join(argv).replace("--", ""))
    def test_usage_error_is_one_line(self, argv, tmp_path, capsys):
        malformed = tmp_path / "malformed.trace.jsonl"
        malformed.write_text("not json\n")
        paths = {"MISSING": str(tmp_path / "missing.trace.jsonl"),
                 "MALFORMED": str(malformed)}
        assert main([paths.get(arg, arg) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


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
    """The analytic tables are model sweeps whose table prints each
    point's metric values."""

    @staticmethod
    def model_rows(preset, tmp_path, capsys):
        """``{parameters: {metric: value}}`` of one model sweep table."""
        assert main(["model", "sweep", preset, "--no-cache", "--quiet",
                     "--out", str(tmp_path / "model.json")]) == 0
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            cells = re.split(r"\s{2,}", line.strip())
            if len(cells) == 4 and "=" in cells[2]:
                rows[cells[1]] = dict(
                    item.split("=") for item in cells[2].split(", "))
        return rows

    def test_table2(self, tmp_path, capsys):
        rows = self.model_rows("table2-bound", tmp_path, capsys)
        assert round(float(rows["trefi_per_mitigation=4"]["bound"])) == 2198

    def test_safe_trh(self, tmp_path, capsys):
        rows = self.model_rows("fig15", tmp_path, capsys)
        assert rows["ath=64, level=1"]["safe_trh"] == "99"

    def test_throughput(self, tmp_path, capsys):
        rows = self.model_rows("sec71", tmp_path, capsys)
        slowdown = float(rows["level=1"]["continuous_alert_slowdown"])
        assert round(slowdown, 1) == 2.8


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
        from repro.mitigations.registry import POLICY_KINDS

        assert main(["perf", "--list-policies"]) == 0
        out = capsys.readouterr().out
        for kind in POLICY_KINDS.names():
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


class TestPerfSubchannels:
    def test_subchannels_flag(self, capsys):
        assert main(["perf", "tc", "--trefi", "128",
                     "--subchannels", "2"]) == 0
        out = capsys.readouterr().out
        assert "2 sub-channels" in out

    def test_subchannels_must_be_positive(self, capsys):
        assert main(["perf", "tc", "--subchannels", "0"]) == 2

    def test_channels_is_not_a_perf_flag(self, capsys):
        """``--channels`` means independent channels (``system run``);
        perf spells sub-channels ``--subchannels``, as mc and attack
        runs do."""
        with pytest.raises(SystemExit) as exc:
            main(["perf", "tc", "--channels", "2"])
        assert exc.value.code == 2
        assert "--channels" in capsys.readouterr().err


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
