"""Tests for attack sweep specs, presets, and point identity."""

import pytest

from repro.attacks.base import AttackRunConfig
from repro.attacks.registry import AttackSpec
from repro.sweep.attack_spec import (
    ATTACK_PRESETS,
    AttackSweepPoint,
    AttackSweepSpec,
)
from repro.sweep.family import ATTACK_FAMILY


def small_spec(**overrides):
    defaults = dict(
        name="test",
        attacks=(
            AttackSpec.of("postponement", threshold=64),
            AttackSpec.of("ratchet", pool_size=4),
        ),
    )
    defaults.update(overrides)
    return AttackSweepSpec(**defaults)


class TestPoints:
    def test_cross_product_with_subchannels(self):
        spec = small_spec(subchannels=(1, 2))
        points = spec.points()
        assert len(points) == 4
        assert {p.run.subchannels for p in points} == {1, 2}

    def test_duplicate_attacks_deduplicated(self):
        spec = small_spec(
            attacks=(
                AttackSpec.of("ratchet", pool_size=4),
                AttackSpec.of("ratchet", pool_size=4),
            )
        )
        assert len(spec.points()) == 1

    def test_keys_unique_and_stable(self):
        spec = small_spec(subchannels=(1, 2))
        keys = [p.key for p in spec.points()]
        assert len(set(keys)) == len(keys)
        assert "postponement(threshold=64)" in keys
        assert "postponement(threshold=64)|sc=2" in keys


class TestConfigHash:
    def test_subchannel_axis_is_neutral_at_one(self):
        # A 1-sub-channel point is the same simulation the pre-channel
        # harness performed; its hash must not mention the axis.
        point = AttackSweepPoint(
            attack=AttackSpec("jailbreak"),
            run=AttackRunConfig(subchannels=1),
        )
        other = AttackSweepPoint(
            attack=AttackSpec("jailbreak"),
            run=AttackRunConfig(subchannels=2),
        )
        assert point.config_hash() != other.config_hash()
        # Deterministic across processes/time.
        assert point.config_hash() == point.config_hash()

    def test_hash_covers_attack_params(self):
        a = AttackSweepPoint(
            AttackSpec.of("ratchet", pool_size=4), AttackRunConfig()
        )
        b = AttackSweepPoint(
            AttackSpec.of("ratchet", pool_size=8), AttackRunConfig()
        )
        assert a.config_hash() != b.config_hash()

    def test_hash_covers_geometry(self):
        base = AttackSweepPoint(AttackSpec("jailbreak"), AttackRunConfig())
        small = AttackSweepPoint(
            AttackSpec("jailbreak"), AttackRunConfig(rows_per_bank=8192,
                                                     num_refresh_groups=1024)
        )
        assert base.config_hash() != small.config_hash()

    def test_sweep_hash_order_independent(self):
        spec = small_spec()
        reversed_spec = small_spec(attacks=tuple(reversed(spec.attacks)))
        assert spec.sweep_hash() == reversed_spec.sweep_hash()


class TestPresets:
    def test_every_security_figure_has_a_preset(self):
        assert set(ATTACK_PRESETS) == {
            "fig1", "fig5", "fig9", "fig10", "fig12", "fig13", "fig16",
            "tsa", "feinting", "postponement", "motivation", "table2",
            "ablation-queue",
        }

    def test_presets_expand(self):
        for spec in ATTACK_PRESETS.values():
            points = spec.points()
            assert points, spec.name
            hashes = [p.config_hash() for p in points]
            assert len(set(hashes)) == len(hashes)

    def test_lookup_error_names_known_presets(self):
        with pytest.raises(KeyError, match="fig5"):
            ATTACK_FAMILY.preset("fig99")

    def test_with_overrides(self):
        """No registered attack reads a seed, so a seed override is
        refused rather than run again under another key."""
        spec = ATTACK_FAMILY.preset("fig5")
        assert spec.with_overrides() is spec
        with pytest.raises(ValueError, match="has no seed axis"):
            spec.with_overrides(seed=3)
