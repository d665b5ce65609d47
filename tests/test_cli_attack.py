"""Tests for the ``repro attack run|sweep|list`` CLI."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_attack_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack"])

    def test_run_choices_come_from_registry(self):
        from repro.attacks.registry import ATTACK_KINDS

        for kind in ATTACK_KINDS.names():
            args = build_parser().parse_args(["attack", "run", kind])
            assert args.name == kind
        with pytest.raises(SystemExit):
            build_parser().parse_args(["attack", "run", "nonexistent"])


class TestAttackList:
    def test_lists_registry(self, capsys):
        from repro.attacks.registry import ATTACK_KINDS

        assert main(["attack", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ATTACK_KINDS.names():
            assert kind in out

    def test_lists_every_set_parameter(self, capsys):
        """``--set`` is the only way to reach a registry parameter, so
        the listing names each one, with its default when it has one."""
        from repro.attacks.registry import ATTACK_KINDS

        assert main(["attack", "list"]) == 0
        out = capsys.readouterr().out
        for kind in ATTACK_KINDS:
            for name in kind.params:
                assert name in out, (kind.name, name)
        assert "pool_size=64" in out
        assert "initial_counters, attack_row_counter, threshold=128" in out


class TestAttackRun:
    def test_postponement(self, capsys):
        assert main(["attack", "run", "postponement"]) == 0
        out = capsys.readouterr().out
        assert "329" in out

    def test_ratchet_small(self, capsys):
        assert main(["attack", "run", "ratchet", "--set", "pool_size=8"]) == 0
        out = capsys.readouterr().out
        assert "ACTs on attack row" in out

    def test_feinting_small(self, capsys):
        assert main(["attack", "run", "feinting",
                     "--set", "periods=32"]) == 0
        out = capsys.readouterr().out
        assert "feinting" in out

    def test_set_overrides_any_registry_param(self, capsys):
        assert main(["attack", "run", "trespass",
                     "--set", "num_aggressors=8",
                     "--set", "acts_per_aggressor=64"]) == 0
        out = capsys.readouterr().out
        assert "8 aggressors" in out

    def test_set_rejects_malformed(self, capsys):
        assert main(["attack", "run", "ratchet", "--set", "pool_size"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_set_rejects_unknown_param(self, capsys):
        assert main(["attack", "run", "ratchet", "--set", "bogus=1"]) == 2
        assert "no parameter" in capsys.readouterr().err

    def test_subchannels_must_be_positive(self, capsys):
        assert main(["attack", "run", "postponement",
                     "--subchannels", "0"]) == 2

    def test_subchannels_flag_scales_open_loop_attacks(self, capsys):
        assert main(["attack", "run", "trespass",
                     "--set", "acts_per_aggressor=64",
                     "--subchannels", "2"]) == 0
        assert "trrespass" in capsys.readouterr().out

    def test_subchannels_rejected_for_adaptive_attacks(self, capsys):
        assert main(["attack", "run", "postponement",
                     "--subchannels", "2"]) == 2
        assert "adaptive" in capsys.readouterr().err

    def test_set_rejects_non_numeric_value(self, capsys):
        assert main(["attack", "run", "ratchet",
                     "--set", "pool_size=abc"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_jailbreak_randomized_runs_with_cli_defaults(self, capsys):
        """The CLI supplies the paper's all-heavy iteration for the
        counter-state parameters the library leaves mandatory."""
        assert main(["attack", "run", "jailbreak-randomized"]) == 0
        assert "ACTs on attack row" in capsys.readouterr().out

    def test_set_accepts_tuple_values(self, capsys):
        counters = ",".join(["64"] * 8)
        assert main(["attack", "run", "jailbreak-randomized",
                     "--set", f"initial_counters={counters}"]) == 0
        capsys.readouterr()

    def test_set_coerces_integral_floats_in_tuples_like_scalars(
        self, capsys
    ):
        counters = ",".join(["64.0"] * 8)
        assert main(["attack", "run", "jailbreak-randomized",
                     "--set", f"initial_counters={counters}",
                     "--set", "attack_row_counter=96.0"]) == 0
        capsys.readouterr()

    def test_set_rejects_non_integer_tuple(self, capsys):
        assert main(["attack", "run", "jailbreak-randomized",
                     "--set", "initial_counters=a,b"]) == 2
        assert "integer" in capsys.readouterr().err

    def test_set_rejects_tuple_for_scalar_param(self, capsys):
        """A comma value for a scalar parameter is a clean error, not
        a TypeError traceback inside the attack."""
        assert main(["attack", "run", "ratchet",
                     "--set", "pool_size=4,8"]) == 2
        assert "single value" in capsys.readouterr().err


class TestAttackSweep:
    def test_list_presets_matches_registry(self, capsys):
        from repro.sweep.attack_spec import ATTACK_PRESETS

        assert main(["attack", "sweep", "--list-presets"]) == 0
        out = capsys.readouterr().out
        for name in ATTACK_PRESETS:
            assert name in out

    def test_requires_preset(self, capsys):
        assert main(["attack", "sweep"]) == 2
        assert "preset" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["attack", "sweep", "fig99"]) == 2
        assert "unknown attack preset" in capsys.readouterr().err

    def test_sweep_writes_artifact(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_attack_postponement.json"
        assert main(["attack", "sweep", "postponement", "--jobs", "1",
                     "--quiet", "--no-cache", "--out", str(out_path)]) == 0
        artifact = json.loads(out_path.read_text())
        assert artifact["schema"] == "repro.attack/v1"
        assert artifact["preset"] == "postponement"
        assert len(artifact["points"]) == 2

    def test_sweep_checks_committed_baseline(self, tmp_path, capsys):
        # The smoke baselines committed under benchmarks/baselines/
        # must gate a fresh run cleanly (resolved via git toplevel, so
        # this works from any working directory).
        out_path = tmp_path / "artifact.json"
        assert main(["attack", "sweep", "postponement", "--jobs", "1",
                     "--quiet", "--no-cache", "--check",
                     "--out", str(out_path)]) == 0
        assert "baseline check passed" in capsys.readouterr().err

    def test_check_fails_against_wrong_baseline(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        out_path = tmp_path / "artifact.json"
        assert main(["attack", "sweep", "postponement", "--jobs", "1",
                     "--quiet", "--no-cache", "--write-baselines",
                     "--baseline", str(baseline),
                     "--out", str(out_path)]) == 0
        data = json.loads(baseline.read_text())
        key = next(iter(data["points"]))
        data["points"][key]["metrics"]["acts_on_attack_row"] += 100
        baseline.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["attack", "sweep", "postponement", "--jobs", "1",
                     "--quiet", "--no-cache", "--check",
                     "--baseline", str(baseline),
                     "--out", str(out_path)]) == 1
        assert "BASELINE CHECK FAILED" in capsys.readouterr().err
