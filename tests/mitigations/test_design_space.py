"""Tests for the Figure 1(a) design-space baselines: victim counting
(TRR-Ideal, §8) and SRAM-optimal Graphene sizing (§2.4)."""

import pytest

from repro.mc.request import Request
from repro.mitigations.graphene import (
    graphene_entries_required,
    graphene_sram_bytes,
    make_graphene,
)
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.registry import PolicySpec
from repro.mitigations.victim_counter import VictimCounterPolicy
from repro.sim.engine import SimConfig, SubchannelSim
from repro.sim.mc import McRunConfig, build_mc_channel, run_mc_requests


class TestVictimCounterPolicy:
    def test_activation_charges_neighbours(self):
        pol = VictimCounterPolicy(num_rows=64)
        pol.on_activate(10, 1)
        assert pol.victim_counts == {8: 1, 9: 1, 11: 1, 12: 1}

    def test_double_sided_accumulates_in_one_counter(self):
        pol = VictimCounterPolicy(num_rows=64)
        pol.on_activate(9, 1)
        pol.on_activate(11, 1)
        # Row 10 is the shared victim: both sides counted.
        assert pol.victim_counts[10] == 2

    def test_mitigate_max_victim(self):
        pol = VictimCounterPolicy(num_rows=64)
        for _ in range(3):
            pol.on_activate(9, 1)
        pol.on_activate(20, 1)
        assert pol.select_proactive() in (7, 8, 10, 11)

    def test_eth_filter(self):
        pol = VictimCounterPolicy(num_rows=64, eth=5)
        pol.on_activate(9, 1)
        assert pol.select_proactive() is None

    def test_refresh_resets_victim_counter(self):
        pol = VictimCounterPolicy(num_rows=64)
        pol.on_activate(9, 1)
        pol.on_ref([8, 10])
        assert 8 not in pol.victim_counts
        assert 10 not in pol.victim_counts

    def test_blast_radius_validation(self):
        with pytest.raises(ValueError):
            VictimCounterPolicy(blast_radius=0)


class TestVictimCounterBankGeometry:
    """The registry sizes the victim counter to the run's bank, so its
    neighbourhood clamps at the real edges on either side of the
    64K-row default."""

    def serve_hammer(self, rows_per_bank, row, requests=3000):
        config = McRunConfig(
            policy=PolicySpec("victim-counter"), rows_per_bank=rows_per_bank,
            banks=1, eth=0, n_trefi=64,
        )
        channel = build_mc_channel(config)
        stream = [Request(issue_ns=10.0 * i, row=row)
                  for i in range(requests)]
        result = run_mc_requests(stream, config, channel=channel)
        return result, channel

    def test_small_bank_clamps_at_last_row(self):
        # Unclamped, the proactive refresh of victim 8192 is out of
        # range for an 8192-row bank.
        result, channel = self.serve_hammer(8192, 8191)
        policy = channel.subchannels[0].policy
        assert policy.num_rows == 8192
        assert channel.proactive_count > 0
        assert result.total_acts > 0
        assert set(policy.victim_counts) <= {8189, 8190}

    def test_large_bank_charges_victims_above_64k(self):
        # Rows past the 64K default must still charge their neighbours
        # and get proactive mitigation.
        result, channel = self.serve_hammer(1 << 17, 100_000)
        policy = channel.subchannels[0].policy
        assert policy.num_rows == 1 << 17
        assert channel.proactive_count > 0
        assert set(policy.victim_counts) <= {99_998, 99_999, 100_001,
                                             100_002}


class TestVictimCountingInEngine:
    def double_sided(self, policy_factory, acts=600):
        sim = SubchannelSim(
            SimConfig(rows_per_bank=64 * 1024, num_refresh_groups=8192,
                      trefi_per_mitigation=1),
            policy_factory,
        )
        for _ in range(acts):
            sim.activate(9000)
            sim.activate(9002)
        sim.flush()
        return sim

    def test_victim_counter_sees_combined_exposure(self):
        """Section 8 contrast: under double-sided hammering the victim
        counter equals the shared victim's true exposure, while each
        per-aggressor PRAC counter sees only half of it."""
        sim = SubchannelSim(
            SimConfig(rows_per_bank=64 * 1024, num_refresh_groups=8192,
                      trefi_per_mitigation=0),
            lambda: VictimCounterPolicy(num_rows=64 * 1024),
        )
        for _ in range(30):
            sim.activate(9000)
            sim.activate(9002)
        policy = sim.policy
        true_exposure = sim.bank.danger_count(9001)
        assert policy.victim_counts[9001] == true_exposure == 60
        # Activation counting: each aggressor's counter shows 30.
        assert sim.bank.prac_count(9000) == 30
        assert sim.bank.prac_count(9002) == 30

    def test_transparent_victim_counting_is_feinting_bounded(self):
        """Without ALERTs, victim counting remains bounded by the
        feinting limit like any purely transparent scheme (§2.5)."""
        from repro.analysis.feinting_model import feinting_bound

        sim = self.double_sided(lambda: VictimCounterPolicy(num_rows=64 * 1024))
        assert sim.bank.max_danger <= feinting_bound(1)

    def test_direct_refresh_clears_victim(self):
        sim = self.double_sided(
            lambda: VictimCounterPolicy(num_rows=64 * 1024), acts=300
        )
        # Mitigations happened and the engine refreshed victims directly.
        assert sim.proactive_count > 0
        assert sim.bank.mitigation_activations == sim.proactive_count


class TestGrapheneSizing:
    def test_entries_scale_inversely_with_trh(self):
        assert graphene_entries_required(99) > graphene_entries_required(4800)

    def test_low_trh_needs_thousands_of_entries(self):
        # Figure 1(a): SRAM-optimal trackers are impractical at the
        # thresholds MOAT targets.
        entries = graphene_entries_required(99)
        assert entries > 5_000
        assert graphene_sram_bytes(99) > 20_000  # >20 KB per bank

    def test_moat_is_three_orders_cheaper(self):
        assert graphene_sram_bytes(99) / MoatPolicy().sram_bytes() > 1_000

    def test_high_trh_is_cheap(self):
        # At DDR4-era thresholds (139K) a handful of entries suffice —
        # which is why TRR-style trackers used to be viable.
        assert graphene_entries_required(139_000) < 10

    def test_make_graphene_policy_works(self):
        tracker = make_graphene(trh=10_000)
        for _ in range(6_000):
            tracker.on_activate(5, 0)
        assert tracker.select_proactive() == 5

    def test_trh_validation(self):
        with pytest.raises(ValueError):
            graphene_entries_required(1)
