"""Tests of the mc sweep spec: expansion, identity, presets."""

import dataclasses

import pytest

from repro.mitigations.registry import PolicySpec
from repro.sim.mc import McRunConfig
from repro.sweep.mc_spec import (
    MC_PRESETS,
    McSweepPoint,
    McSweepSpec,
    mc_preset,
)
from repro.workloads.requests import McWorkload


class TestPointIdentity:
    def test_key_is_stable_and_readable(self):
        point = McSweepPoint(config=McRunConfig())
        assert point.key == (
            "poisson-r24|moat|ath=64|eth=32|L1|tpm=5|frfcfs|closed|qd=32"
            "|b4|trefi=1024|seed=0"
        )

    def test_infinite_depth_key(self):
        point = McSweepPoint(config=McRunConfig(queue_depth=None))
        assert "|qd=inf|" in point.key

    def test_subchannels_only_in_key_when_not_one(self):
        assert "|sc=" not in McSweepPoint(config=McRunConfig()).key
        assert "|sc=2|" in McSweepPoint(
            config=McRunConfig(subchannels=2)
        ).key

    def test_resolved_spellings_share_identity(self):
        """eth=None and eth=ath//2 are the same simulation."""
        implicit = McSweepPoint(config=McRunConfig(ath=64, eth=None))
        explicit = McSweepPoint(config=McRunConfig(ath=64, eth=32))
        assert implicit.config_hash() == explicit.config_hash()

    def test_hash_covers_controller_knobs(self):
        base = McSweepPoint(config=McRunConfig())
        for change in (
            {"scheduler": "fcfs"},
            {"row_policy": "open"},
            {"queue_depth": 8},
            {"queue_depth": None},
            {"abo_level": 2},
            {"banks": 2},
            {"seed": 1},
            {"workload": McWorkload(reads_per_trefi_per_bank=25.0)},
            {"policy": PolicySpec("null")},
        ):
            changed = McSweepPoint(
                config=dataclasses.replace(base.config, **change)
            )
            assert changed.config_hash() != base.config_hash(), change

    def test_hash_is_deterministic(self):
        a = McSweepPoint(config=McRunConfig()).config_hash()
        b = McSweepPoint(config=McRunConfig()).config_hash()
        assert a == b and len(a) == 16

    def test_dead_burst_knobs_hash_out_for_poisson(self):
        """A Poisson stream never reads the burst knobs, so spellings
        differing only there are one simulation — one identity."""
        a = McSweepPoint(config=McRunConfig(
            workload=McWorkload(process="poisson", burst_trefi=2.0)))
        b = McSweepPoint(config=McRunConfig(
            workload=McWorkload(process="poisson", burst_trefi=16.0)))
        assert a.config_hash() == b.config_hash()
        assert a.key == b.key

    def test_bursty_burst_knobs_are_live(self):
        a = McSweepPoint(config=McRunConfig(
            workload=McWorkload(process="bursty", burst_trefi=2.0)))
        b = McSweepPoint(config=McRunConfig(
            workload=McWorkload(process="bursty", burst_trefi=16.0)))
        assert a.config_hash() != b.config_hash()
        assert a.key != b.key

    def test_key_separates_behavior_distinct_workloads(self):
        """Key dedup must never fold two different request streams:
        every stream-shaping parameter appears in the display name
        when off its default (hot_rows bounds the cold draw range
        even at hot_fraction=0)."""
        variants = [
            McWorkload(),
            McWorkload(hot_rows=2),
            McWorkload(hot_fraction=0.5),
            McWorkload(hot_fraction=0.5, hot_rows=2),
            McWorkload(write_fraction=0.3),
            McWorkload(process="bursty"),
            McWorkload(process="bursty", burst_trefi=2.0),
            McWorkload(process="bursty", idle_trefi=32.0),
        ]
        names = [w.display_name() for w in variants]
        assert len(set(names)) == len(names), names


class TestSpecExpansion:
    def test_cross_product(self):
        spec = McSweepSpec(
            name="t",
            policies=(PolicySpec("moat"), PolicySpec("null")),
            abo_level=(1, 4),
            scheduler=("fcfs", "frfcfs"),
        )
        assert len(spec.points()) == 8

    def test_deduplicates_equivalent_cells(self):
        spec = McSweepSpec(
            name="t",
            workloads=(McWorkload(), McWorkload()),  # identical cell
        )
        assert len(spec.points()) == 1

    def test_keeps_workloads_that_differ_past_six_digits(self):
        spec = McSweepSpec(
            name="t",
            workloads=(McWorkload(hot_fraction=0.3333333),
                       McWorkload(hot_fraction=1 / 3),
                       McWorkload(reads_per_trefi_per_bank=24.0),
                       McWorkload(reads_per_trefi_per_bank=24.0000001)),
        )
        assert len(spec.points()) == 4

    def test_with_overrides(self):
        spec = McSweepSpec(name="t")
        scaled = spec.with_overrides(n_trefi=64, seed=7)
        assert scaled.n_trefi == 64 and scaled.seed == 7
        assert spec.with_overrides() is spec

    def test_sweep_hash_changes_with_scale(self):
        spec = McSweepSpec(name="t")
        assert spec.sweep_hash() != spec.with_overrides(n_trefi=64).sweep_hash()


class TestPresets:
    def test_lookup(self):
        assert mc_preset("mc-smoke").name == "mc-smoke"
        with pytest.raises(KeyError, match="unknown mc preset"):
            mc_preset("nope")

    def test_every_preset_expands(self):
        for name, spec in MC_PRESETS.items():
            points = spec.points()
            assert points, name
            assert len({p.key for p in points}) == len(points), name
            assert len({p.config_hash() for p in points}) == len(points), name

    def test_abo_preset_spans_levels(self):
        levels = {p.config.abo_level for p in mc_preset("mc-abo").points()}
        assert levels == {1, 2, 4}

    def test_policy_preset_spans_registry(self):
        kinds = {p.config.policy.kind for p in mc_preset("mc-policy").points()}
        assert {"moat", "null", "panopticon", "para", "trr",
                "graphene", "victim-counter"} <= kinds

    def test_sched_preset_spans_matrix(self):
        combos = {
            (p.config.scheduler, p.config.row_policy)
            for p in mc_preset("mc-sched").points()
        }
        assert combos == {("fcfs", "closed"), ("fcfs", "open"),
                          ("frfcfs", "closed"), ("frfcfs", "open")}
