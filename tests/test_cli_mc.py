"""Tests for the ``repro mc`` command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.sweep.mc_spec import MC_PRESETS

SMOKE = ["--trefi", "96", "--jobs", "1", "--quiet"]


def run_mc_sweep_cli(tmp_path, *extra, preset="mc-smoke"):
    out = tmp_path / "BENCH_mc.json"
    argv = ["mc", "sweep", preset, *SMOKE, "--out", str(out),
            "--cache-root", str(tmp_path / "cache"), *extra]
    return main(argv), out


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["mc", "run"])
        assert args.policy == "moat"
        assert args.sched == "frfcfs"
        assert args.row_policy == "closed"
        assert args.queue_depth == 32

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["mc", "sweep", "mc-smoke"])
        assert args.preset == "mc-smoke"
        assert not args.check

    def test_action_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["mc"])

    def test_bad_scheduler_rejected(self, capsys):
        assert main(["mc", "run", "--sched", "lifo"]) == 2
        assert "unknown scheduler 'lifo'" in capsys.readouterr().err


class TestListPresets:
    def test_lists_every_preset(self, capsys):
        assert main(["mc", "sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name, spec in MC_PRESETS.items():
            assert re.search(rf"{re.escape(name)}\s+{len(spec.points())}\s",
                             out), name

    def test_sweep_list_flag_matches(self, capsys):
        assert main(["mc", "sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in MC_PRESETS:
            assert name in out


class TestRun:
    def test_reports_latency_and_bandwidth(self, capsys):
        assert main(["mc", "run", "--trefi", "64", "--banks", "2"]) == 0
        out = capsys.readouterr().out
        for needle in ("read latency mean", "read latency p50",
                       "read latency p99", "achieved bandwidth",
                       "ALERT stall fraction", "moat"):
            assert needle in out

    def test_null_baseline(self, capsys):
        assert main(["mc", "run", "--policy", "null", "--trefi", "64",
                     "--banks", "2"]) == 0
        out = capsys.readouterr().out
        assert "null" in out
        assert "0.0000" in out  # no ALERTs without a policy

    def test_open_page_reports_hit_rate(self, capsys):
        assert main(["mc", "run", "--row-policy", "open", "--trefi", "64",
                     "--banks", "2", "--hot-fraction", "0.5",
                     "--hot-rows", "2"]) == 0
        assert "row-buffer hit rate" in capsys.readouterr().out

    def test_queue_depth_zero_is_unbounded(self, capsys):
        assert main(["mc", "run", "--queue-depth", "0", "--trefi", "64",
                     "--banks", "2"]) == 0
        assert "unbounded" in capsys.readouterr().out

    def test_negative_depth_is_usage_error(self, capsys):
        assert main(["mc", "run", "--queue-depth", "-3"]) == 2
        assert "--queue-depth" in capsys.readouterr().err

    def test_bad_workload_parameters_are_usage_errors(self, capsys):
        assert main(["mc", "run", "--rate", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("rate", ["inf", "nan"])
    def test_non_finite_rate_is_usage_error(self, capsys, rate):
        assert main(["mc", "run", "--rate", rate, "--trefi", "16",
                     "--banks", "2"]) == 2
        assert "must be finite" in capsys.readouterr().err

    def test_trace_replay(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        assert main(["trace", "synth", "mcf", "--trefi", "16",
                     "--out", str(trace)]) == 0
        assert main(["mc", "run", "--trace", str(trace),
                     "--queue-depth", "0", "--sched", "fcfs"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "read latency p99" in out

    def test_activation_trace_rejected(self, tmp_path, capsys):
        from repro.trace import ActivationTrace

        path = tmp_path / "act.jsonl"
        ActivationTrace(events=[(0.0, 0, 1)]).save(path)
        assert main(["mc", "run", "--trace", str(path)]) == 2
        assert "address trace" in capsys.readouterr().err


class TestSweep:
    def test_artifact_written(self, tmp_path, capsys):
        code, out = run_mc_sweep_cli(tmp_path)
        assert code == 0
        artifact = json.loads(out.read_text())
        assert artifact["schema"] == "repro.mc/v1"
        assert artifact["preset"] == "mc-smoke"
        assert artifact["n_trefi"] == 96
        stdout = capsys.readouterr().out
        assert "MC sweep mc-smoke" in stdout
        assert "p99 ns" in stdout

    def test_preset_required(self, capsys):
        assert main(["mc", "sweep", "--quiet"]) == 2

    def test_unknown_preset(self, capsys):
        assert main(["mc", "sweep", "mc-nope", "--quiet"]) == 2
        assert "unknown mc preset" in capsys.readouterr().err

    def test_write_baseline_then_check_passes(self, tmp_path, capsys):
        baseline = tmp_path / "mc_mc-smoke.json"
        code, _ = run_mc_sweep_cli(
            tmp_path, "--write-baselines", "--baseline", str(baseline)
        )
        assert code == 0 and baseline.is_file()
        code, _ = run_mc_sweep_cli(
            tmp_path, "--check", "--baseline", str(baseline),
        )
        assert code == 0
        assert "baseline check passed" in capsys.readouterr().err

    def test_check_fails_on_drifted_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "mc_mc-smoke.json"
        code, _ = run_mc_sweep_cli(
            tmp_path, "--write-baselines", "--baseline", str(baseline)
        )
        assert code == 0
        data = json.loads(baseline.read_text())
        key = next(iter(data["points"]))
        data["points"][key]["metrics"]["read_p99_ns"] *= 3.0
        baseline.write_text(json.dumps(data))
        code, _ = run_mc_sweep_cli(
            tmp_path, "--check", "--baseline", str(baseline)
        )
        assert code == 1
        assert "BASELINE CHECK FAILED" in capsys.readouterr().err

    def test_cache_hits_on_rerun(self, tmp_path, capsys):
        run_mc_sweep_cli(tmp_path)
        capsys.readouterr()
        code, _ = run_mc_sweep_cli(tmp_path)
        assert code == 0
        assert "4 cached" in capsys.readouterr().out


class TestScheds:
    def test_list_scheds_covers_the_registry(self, capsys):
        from repro.mc.sched import SCHEDULERS

        assert main(["mc", "list-scheds"]) == 0
        out = capsys.readouterr().out
        for name in SCHEDULERS:
            assert name in out
        # Defaults are printed so --sched params are discoverable.
        assert "budget_ns=10000" in out
        assert "gbps=1" in out

    def test_sched_flag_runs_a_parameterized_policy(self, capsys):
        assert main(["mc", "run", "--sched", "slo:budget_ns=5000",
                     "--trefi", "64", "--banks", "2"]) == 0
        assert "slo(budget_ns=5000)" in capsys.readouterr().out

    def test_sched_flag_overrides_scheduler_flag(self, capsys):
        # The last --sched wins.
        assert main(["mc", "run", "--sched", "fcfs",
                     "--sched", "priority", "--trefi", "64",
                     "--banks", "2"]) == 0
        assert "priority" in capsys.readouterr().out

    def test_unknown_sched_kind_is_a_usage_error(self, capsys):
        assert main(["mc", "run", "--sched", "elevator"]) == 2
        err = capsys.readouterr().err
        assert "unknown scheduler 'elevator'" in err
        assert "fcfs, frfcfs, priority, bw-cap, slo" in err

    def test_unknown_sched_param_is_a_usage_error(self, capsys):
        assert main(["mc", "run", "--sched", "slo:bogus=1"]) == 2
        assert "unknown sched param 'bogus'" in capsys.readouterr().err

    def test_malformed_sched_param_is_a_usage_error(self, capsys):
        assert main(["mc", "run", "--sched", "slo:budget_ns"]) == 2
        assert "expected k=v" in capsys.readouterr().err
