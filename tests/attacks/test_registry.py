"""Tests for the attack registry and the run_attack front-end."""

import math

import pytest

from repro.attacks.base import AttackResult, AttackRunConfig
from repro.attacks.registry import ATTACK_KINDS, AttackSpec, run_attack


class TestAttackSpec:
    def test_known_kinds(self):
        assert set(ATTACK_KINDS.names()) == {
            "jailbreak", "jailbreak-randomized", "ratchet", "feinting",
            "postponement", "tsa", "kernel-single", "kernel-multi",
            "trespass",
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown attack kind"):
            AttackSpec("rowpress")

    def test_missing_required_params_rejected_at_construction(self):
        """Runners with non-defaulted parameters fail as a clean
        ValueError at spec time, not a TypeError inside execute()."""
        with pytest.raises(ValueError, match="requires parameters"):
            AttackSpec("jailbreak-randomized")
        spec = AttackSpec.of(
            "jailbreak-randomized",
            initial_counters=(112,) * 8,
            attack_row_counter=96,
        )
        assert spec.param_dict()["attack_row_counter"] == 96

    def test_unknown_param_rejected_at_construction(self):
        with pytest.raises(ValueError, match="no parameter"):
            AttackSpec.of("ratchet", pool=16)  # the real name is pool_size

    def test_geometry_params_are_not_sweepable(self):
        # Geometry comes from AttackRunConfig, never from spec params.
        with pytest.raises(ValueError, match="no parameter"):
            AttackSpec.of("jailbreak", rows_per_bank=1024)

    def test_params_sorted_and_hashable(self):
        a = AttackSpec.of("ratchet", pool_size=16, ath=64)
        b = AttackSpec.of("ratchet", ath=64, pool_size=16)
        assert a == b
        assert hash(a) == hash(b)
        assert a.display_name() == "ratchet(ath=64,pool_size=16)"

    def test_adaptivity_and_figure_metadata(self):
        assert AttackSpec("ratchet").adaptive
        assert not AttackSpec("kernel-single").adaptive
        assert AttackSpec("jailbreak").figure == "Figure 5"


class TestRunAttack:
    def test_string_kind_with_params(self):
        result = run_attack("ratchet", pool_size=8)
        assert result.acts_on_attack_row > 64  # above ATH: the ratchet worked

    def test_spec_matches_direct_call(self):
        from repro.attacks.ratchet import run_ratchet

        via_registry = run_attack(AttackSpec.of("ratchet", pool_size=8))
        direct = run_ratchet(pool_size=8)
        assert via_registry.acts_on_attack_row == direct.acts_on_attack_row
        assert via_registry.elapsed_ns == direct.elapsed_ns

    def test_params_rejected_with_ready_spec(self):
        with pytest.raises(TypeError):
            run_attack(AttackSpec("ratchet"), pool_size=8)

    def test_run_config_geometry_reaches_the_attack(self):
        small = AttackRunConfig(rows_per_bank=8192, num_refresh_groups=1024)
        result = run_attack("postponement", run=small)
        assert result.acts_on_attack_row > 128

    def test_small_geometry_places_rows_in_range(self):
        # Row placement derives from the geometry: a bank far smaller
        # than the paper's must still work (or fail with a clear
        # ValueError), never crash with an out-of-range row.
        small = AttackRunConfig(rows_per_bank=8192, num_refresh_groups=1024)
        tsa = run_attack("tsa", num_banks=2, cycles=1, run=small)
        assert tsa.total_acts > 0
        jailbreak = run_attack(
            "jailbreak",
            run=AttackRunConfig(rows_per_bank=4096, num_refresh_groups=512),
        )
        assert jailbreak.acts_on_attack_row > 0

    def test_impossible_geometry_is_a_clear_error(self):
        tiny = AttackRunConfig(rows_per_bank=128, num_refresh_groups=128)
        with pytest.raises(ValueError, match="cannot place"):
            run_attack("trespass", num_aggressors=64, run=tiny)

    def test_open_loop_attacks_replicate_across_subchannels(self):
        one = run_attack("trespass", acts_per_aggressor=64,
                         run=AttackRunConfig(subchannels=1))
        two = run_attack("trespass", acts_per_aggressor=64,
                         run=AttackRunConfig(subchannels=2))
        assert two.subchannels == 2
        # The pattern replicates per sub-channel: twice the traffic,
        # same per-sub-channel tracker pressure.
        assert two.total_acts == 2 * one.total_acts
        assert two.max_danger == one.max_danger

    def test_adaptive_attacks_reject_multi_subchannel(self):
        # An adaptive attack's feedback loop is defined against one
        # sub-channel; relabeling a 1-sub-channel run as N would
        # fabricate a channel result.
        for kind in ("jailbreak", "ratchet", "feinting", "postponement",
                     "tsa"):
            with pytest.raises(ValueError, match="adaptive"):
                run_attack(kind, run=AttackRunConfig(subchannels=2))


class TestAttackResultThroughput:
    def test_never_advanced_is_nan_not_zero(self):
        # elapsed == 0 means the sim never advanced: the rate is
        # undefined, not zero.
        stuck = AttackResult(name="x", total_acts=0, elapsed_ns=0.0)
        assert math.isnan(stuck.throughput)

    def test_genuine_zero_throughput_is_zero(self):
        # A run that idled through real time without activating has a
        # well-defined throughput of exactly zero.
        idle = AttackResult(name="x", total_acts=0, elapsed_ns=1000.0)
        assert idle.throughput == 0.0

    def test_metrics_omit_undefined_throughput(self):
        stuck = AttackResult(name="x", total_acts=0, elapsed_ns=0.0)
        assert "throughput" not in stuck.as_metrics()
        live = AttackResult(name="x", total_acts=10, elapsed_ns=100.0)
        assert live.as_metrics()["throughput"] == pytest.approx(0.1)

    def test_metrics_omit_nonfinite_details(self):
        # A detail derived from an undefined rate (NaN/inf) must stay
        # out of artifacts: json.dumps would emit non-RFC-8259 NaN
        # tokens and every later baseline check would fail confusingly.
        result = AttackResult(
            name="x", total_acts=0, elapsed_ns=0.0,
            details={"throughput_loss": float("nan"),
                     "baseline_ns": float("inf"),
                     "threshold": 64},
        )
        metrics = result.as_metrics()
        assert "detail:throughput_loss" not in metrics
        assert "detail:baseline_ns" not in metrics
        assert metrics["detail:threshold"] == 64.0
        import json
        json.loads(json.dumps(metrics, allow_nan=False))  # strict-JSON safe

    def test_metrics_flatten_numeric_details(self):
        result = AttackResult(
            name="x", total_acts=1, elapsed_ns=1.0,
            details={"threshold": 128, "note": "text"},
        )
        metrics = result.as_metrics()
        assert metrics["detail:threshold"] == 128.0
        assert "detail:note" not in metrics
