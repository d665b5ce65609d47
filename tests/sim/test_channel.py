"""Tests for the channel layer: routing, command front-end, hierarchy."""

import pytest

from repro.mitigations.moat import MoatPolicy
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import T_ISSUE_GAP, SimConfig, SubchannelSim


def moat_factory():
    return MoatPolicy(ath=64)


def small_sim_config(**kwargs) -> SimConfig:
    kwargs.setdefault("num_banks", 2)
    kwargs.setdefault("rows_per_bank", 256)
    kwargs.setdefault("num_refresh_groups", 128)
    kwargs.setdefault("track_danger", False)
    return SimConfig(**kwargs)


class TestChannelConfig:
    def test_defaults_single_subchannel(self):
        config = ChannelConfig()
        assert config.num_subchannels == 1
        assert config.t_cmd_gap_resolved == T_ISSUE_GAP

    def test_cmd_gap_scales_with_width(self):
        config = ChannelConfig(num_subchannels=2)
        assert config.t_cmd_gap_resolved == T_ISSUE_GAP / 2

    def test_rejects_zero_subchannels(self):
        with pytest.raises(ValueError):
            ChannelConfig(num_subchannels=0)


class TestSingleSubchannelEquivalence:
    """A 1-sub-channel channel must be bit-identical to a bare engine."""

    def drive(self, sim, activate):
        rows = [5, 9, 5, 13, 5, 9] * 40
        for i, row in enumerate(rows):
            activate(row)
            if i % 16 == 15:
                sim.advance_to(sim.now + 3000.0)
        sim.flush()
        return sim.stats()

    def test_stats_identical(self):
        config = SimConfig(track_danger=False)
        bare = SubchannelSim(config, moat_factory)
        channel = ChannelSim(ChannelConfig(sim=config), moat_factory)
        bare_stats = self.drive(bare, lambda row: bare.activate(row))
        chan_stats = self.drive(channel, lambda row: channel.activate(row))
        del chan_stats["subchannels"]
        assert chan_stats == {k: float(v) for k, v in bare_stats.items()}


class TestSubchannelRouting:
    def make(self):
        return ChannelSim(
            ChannelConfig(sim=small_sim_config(), num_subchannels=2),
            moat_factory,
        )

    def test_activate_routes_by_coordinates(self):
        channel = self.make()
        channel.activate(17, bank=1, subchannel=1)
        sub = channel.subchannels[1]
        assert sub.total_acts == 1
        assert sub.banks[1].prac_count(17) == 1
        assert channel.subchannels[0].total_acts == 0

    def test_stats_aggregate_subchannels(self):
        channel = self.make()
        for row in range(8):
            channel.activate(row, bank=0, subchannel=0)
            channel.activate(row, bank=1, subchannel=1)
        stats = channel.stats()
        assert stats["total_acts"] == 16
        assert stats["subchannels"] == 2
        assert channel.total_acts == 16


class TestCommandFrontEnd:
    def test_cross_subchannel_commands_share_issue_slots(self):
        """Back-to-back commands to different sub-channels are spaced
        by the channel command gap, not issued at the same instant."""
        channel = ChannelSim(
            ChannelConfig(sim=small_sim_config(), num_subchannels=2),
            moat_factory,
        )
        gap = channel.config.t_cmd_gap_resolved
        first = channel.activate(1, bank=0, subchannel=0)
        second = channel.activate(1, bank=0, subchannel=1)
        assert second.time >= first.time + gap

    def test_batches_serialize_across_subchannels(self):
        channel = ChannelSim(
            ChannelConfig(sim=small_sim_config(), num_subchannels=2),
            moat_factory,
        )
        gap = channel.config.t_cmd_gap_resolved
        last0 = channel.activate_many([1, 2, 3], bank=0, subchannel=0)
        first1 = channel.activate(1, bank=0, subchannel=1)
        assert first1.time >= last0 + gap

    def test_run_takes_one_lane_list_per_subchannel(self):
        channel = ChannelSim(
            ChannelConfig(sim=small_sim_config(), num_subchannels=2),
            moat_factory,
        )
        with pytest.raises(ValueError, match="1 sub-channel lanes for 2"):
            channel.activate_intervals([[[[1, 2]]]], 3900.0)
        assert channel.total_acts == 0

    def test_single_subchannel_gap_is_neutral(self):
        """With one sub-channel the command floor coincides with the
        sub-channel's own issue gap: timestamps match a bare engine."""
        config = SimConfig(track_danger=False)
        bare = SubchannelSim(config, moat_factory)
        channel = ChannelSim(ChannelConfig(sim=config), moat_factory)
        bare_times = [bare.activate(r).time for r in [1, 2, 3, 4, 1, 2]]
        chan_times = [channel.activate(r).time for r in [1, 2, 3, 4, 1, 2]]
        assert bare_times == chan_times
