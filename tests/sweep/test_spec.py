"""Tests for sweep specifications, presets, and hashing."""

import dataclasses

import pytest

from repro.mitigations.registry import PolicySpec, RunParams
from repro.sweep.spec import (
    ALL_WORKLOADS,
    PRESETS,
    SWEEP_WORKLOADS,
    SweepSpec,
)
from repro.sweep.family import PERF_FAMILY


class TestPresets:
    def test_every_paper_grid_has_a_preset(self):
        assert set(PRESETS) == {
            "fig11",
            "fig17",
            "table5",
            "table6",
            "table7",
            "ablation",
            "channel",
            "sec65",
        }

    def test_fig11_grid_shape(self):
        spec = PERF_FAMILY.preset("fig11")
        points = spec.points()
        assert len(points) == len(ALL_WORKLOADS) * 2  # ATH 64 and 128
        assert {p.config.ath for p in points} == {64, 128}
        assert all(p.config.policy.kind == "moat" for p in points)

    def test_table5_sweeps_eth(self):
        spec = PERF_FAMILY.preset("table5")
        assert sorted(spec.eth) == [0, 16, 32, 48]
        assert spec.workloads == SWEEP_WORKLOADS

    def test_table6_includes_alert_only(self):
        assert 0 in PERF_FAMILY.preset("table6").trefi_per_mitigation

    def test_table7_is_ath_by_level(self):
        points = PERF_FAMILY.preset("table7").points()
        cells = {(p.config.ath, p.config.abo_level) for p in points}
        assert cells == {(a, l) for a in (32, 64, 128) for l in (1, 2, 4)}

    def test_ablation_covers_every_policy_kind(self):
        kinds = {p.kind for p in PERF_FAMILY.preset("ablation").policies}
        assert kinds == {
            "moat",
            "panopticon",
            "para",
            "trr",
            "graphene",
            "victim-counter",
            "null",
        }

    def test_unknown_preset_raises(self):
        with pytest.raises(KeyError, match="unknown sweep preset"):
            PERF_FAMILY.preset("fig99")


class TestSweepSpec:
    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            SweepSpec(name="bad", workloads=("not-a-workload",))

    def test_points_order_deterministic(self):
        spec = SweepSpec(name="t", workloads=("tc", "roms"), ath=(64, 128))
        keys = [p.key for p in spec.points()]
        assert keys == [p.key for p in spec.points()]
        assert len(set(keys)) == len(keys) == 4

    def test_with_overrides(self):
        spec = PERF_FAMILY.preset("fig11").with_overrides(
            n_trefi=512, seed=7, workloads=["tc"])
        assert spec.n_trefi == 512
        assert spec.workloads == ("tc",)
        assert len(spec.points()) == 2
        assert {p.config.seed for p in spec.points()} == {7}
        # No-op overrides return an equal spec.
        assert PERF_FAMILY.preset("fig11").with_overrides() == PERF_FAMILY.preset("fig11")


class TestHashing:
    def test_hash_stable_for_equal_configs(self):
        a = SweepSpec(name="t", workloads=("tc",))
        b = SweepSpec(name="t", workloads=("tc",))
        assert a.points()[0].config_hash() == b.points()[0].config_hash()
        assert a.sweep_hash() == b.sweep_hash()

    def test_hash_changes_with_any_axis(self):
        base = SweepSpec(name="t", workloads=("tc",))
        variants = [
            SweepSpec(name="t", workloads=("roms",)),
            SweepSpec(name="t", workloads=("tc",), ath=(128,)),
            SweepSpec(name="t", workloads=("tc",), eth=(16,)),
            SweepSpec(name="t", workloads=("tc",), abo_level=(2,)),
            SweepSpec(name="t", workloads=("tc",), n_trefi=4096),
            SweepSpec(name="t", workloads=("tc",), seed=7),
            SweepSpec(name="t", workloads=("tc",),
                      policies=(PolicySpec("panopticon"),)),
            SweepSpec(name="t", workloads=("tc",),
                      trefi_per_mitigation=(3,)),
        ]
        base_hash = base.points()[0].config_hash()
        for variant in variants:
            assert variant.points()[0].config_hash() != base_hash, variant

    def test_policy_params_affect_hash(self):
        a = SweepSpec(name="t", workloads=("tc",),
                      policies=(PolicySpec.of("para", probability=0.001),))
        b = SweepSpec(name="t", workloads=("tc",),
                      policies=(PolicySpec.of("para", probability=0.01),))
        assert a.points()[0].config_hash() != b.points()[0].config_hash()

    def test_point_key_is_readable(self):
        point = SweepSpec(name="t", workloads=("tc",), n_trefi=512).points()[0]
        assert point.key == "tc|moat|ath=64|eth=32|L1|tpm=5|trefi=512|seed=0"

    def test_hash_uses_resolved_defaults(self):
        """eth=None (-> ATH/2) and an explicit eth=32 are the same
        simulation, so they must share one hash and cache entry."""
        implicit = SweepSpec(name="t", workloads=("tc",)).points()[0]
        explicit = SweepSpec(name="t", workloads=("tc",), eth=(32,)).points()[0]
        assert implicit.key == explicit.key
        assert implicit.config_hash() == explicit.config_hash()

    def test_equivalent_cells_deduplicated(self):
        spec = SweepSpec(name="t", workloads=("tc",), eth=(None, 32, 16))
        keys = [p.key for p in spec.points()]
        assert len(keys) == len(set(keys)) == 2  # None and 32 collapse


class TestPolicySpec:
    def test_param_order_is_canonical(self):
        a = PolicySpec("trr", (("entries", 8), ("mitigation_threshold", 16)))
        b = PolicySpec("trr", (("mitigation_threshold", 16), ("entries", 8)))
        assert a == b and hash(a) == hash(b)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            PolicySpec("quantum-moat")

    def test_unknown_param_rejected(self):
        """A misspelled parameter must fail, not run the kind's
        defaults under a key and config hash of its own."""
        with pytest.raises(ValueError,
                           match="policy 'moat' has no parameter 'athh'"):
            PolicySpec.of("moat", athh=16)
        with pytest.raises(ValueError, match="has no parameter 'entries'"):
            PolicySpec("null", (("entries", 4),))

    def test_builder_params_reach_the_policy(self):
        run = RunParams(ath=64, eth=32)
        trr = PolicySpec.of("trr", entries=8, mitigation_threshold=16)
        tracker = trr.make_factory(run)()
        assert (tracker.entries, tracker.mitigation_threshold) == (8, 16)
        default = PolicySpec("trr").make_factory(run)()
        assert (default.entries, default.mitigation_threshold) == (16, 32)
        PolicySpec.of("para", probability=0.01).make_factory(run)()
        PolicySpec.of("panopticon", drain_all_on_ref=True).make_factory(run)()

    def test_display_name(self):
        assert PolicySpec("moat").display_name() == "moat"
        spec = PolicySpec.of("panopticon", drain_all_on_ref=True)
        assert spec.display_name() == "panopticon(drain_all_on_ref=True)"


class TestSubchannelAxis:
    def test_channel_preset_grid(self):
        spec = PERF_FAMILY.preset("channel")
        points = spec.points()
        assert {p.config.subchannels for p in points} == {1, 2}
        assert len(points) == len(SWEEP_WORKLOADS) * 2

    def test_neutral_subchannels_hash_is_stable(self):
        """subchannels=1 must hash (and key) identically to a config
        predating the axis — committed baselines depend on it."""
        base = SweepSpec(name="a", workloads=("tc",))
        explicit = SweepSpec(name="a", workloads=("tc",), subchannels=(1,))
        assert [p.config_hash() for p in base.points()] == [
            p.config_hash() for p in explicit.points()
        ]
        assert [p.key for p in base.points()] == [
            p.key for p in explicit.points()
        ]
        # Pinned against the committed fig11 smoke baseline: if this
        # hash moves, every benchmarks/baselines/*.json goes stale.
        import json
        import pathlib

        baseline_path = (
            pathlib.Path(__file__).resolve().parents[2]
            / "benchmarks" / "baselines" / "fig11.json"
        )
        baseline = json.loads(baseline_path.read_text())
        from repro.sweep.spec import PRESETS

        smoke = PRESETS["fig11"].with_overrides(
            n_trefi=baseline["n_trefi"], seed=baseline["seed"]
        )
        assert smoke.sweep_hash() == baseline["sweep_hash"]

    def test_non_neutral_subchannels_changes_identity(self):
        narrow = SweepSpec(name="a", workloads=("tc",))
        wide = SweepSpec(name="a", workloads=("tc",), subchannels=(2,))
        assert (
            narrow.points()[0].config_hash() != wide.points()[0].config_hash()
        )
        assert "sc=2" in wide.points()[0].key
        assert "sc=" not in narrow.points()[0].key
