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

    def test_neutral_seed_stays_out_of_identity(self):
        # seed is reserved for future stochastic attacks: at the
        # neutral 0 it must not rename points or change hashes, so
        # committed baselines survive the axis starting to matter.
        neutral = small_spec(seed=0).points()[0]
        seeded = small_spec(seed=7).points()[0]
        assert "seed" not in neutral.key
        assert seeded.key.endswith("|seed=7")
        assert neutral.config_hash() != seeded.config_hash()


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

    def test_hash_covers_seed_and_geometry(self):
        base = AttackSweepPoint(AttackSpec("jailbreak"), AttackRunConfig())
        seeded = AttackSweepPoint(
            AttackSpec("jailbreak"), AttackRunConfig(seed=7)
        )
        small = AttackSweepPoint(
            AttackSpec("jailbreak"), AttackRunConfig(rows_per_bank=8192,
                                                     num_refresh_groups=1024)
        )
        assert len({base.config_hash(), seeded.config_hash(),
                    small.config_hash()}) == 3

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
        spec = ATTACK_FAMILY.preset("fig5").with_overrides(seed=3)
        assert spec.seed == 3
        assert all(p.run.seed == 3 for p in spec.points())
        assert ATTACK_FAMILY.preset("fig5").with_overrides() is not None
