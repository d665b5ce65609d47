"""Tests for the ALERT-Back-Off protocol (paper §2.6, Figures 2 and 8)."""

import math

import pytest

from repro.abo.protocol import AboConfig, AboProtocol
from repro.dram.timing import DDR5_PRAC_TIMING


def asserted():
    """A level-1 protocol whose first ALERT asserted at time 0."""
    abo = AboProtocol(AboConfig(level=1))
    abo.request_alert()
    assert abo.try_begin_alert(0.0) == 0.0
    return abo


class TestAboConfig:
    @pytest.mark.parametrize("level,expected", [(1, 4), (2, 5), (4, 7)])
    def test_min_acts_between_alerts_fig8(self, level, expected):
        # Figure 8: 3 pre-RFM ACTs + level post-RFM ACTs.
        assert AboConfig(level=level).min_acts_between_alerts == expected

    def test_three_acts_fit_in_180ns_window(self):
        assert AboConfig(level=1).pre_rfm_acts == 3

    @pytest.mark.parametrize("level", [0, 3, 5])
    def test_illegal_levels_rejected(self, level):
        with pytest.raises(ValueError):
            AboConfig(level=level)

    @pytest.mark.parametrize(
        "level,duration", [(1, 530.0), (2, 880.0), (4, 1580.0)]
    )
    def test_alert_duration(self, level, duration):
        assert AboConfig(level=level).alert_duration == duration

    @pytest.mark.parametrize("level,stall", [(1, 350.0), (2, 700.0), (4, 1400.0)])
    def test_stall_duration(self, level, stall):
        assert AboConfig(level=level).stall_duration == stall

    def test_rfms_equal_level(self):
        assert AboConfig(level=4).rfms_per_alert == 4


class TestAboProtocol:
    def test_no_alert_without_request(self):
        abo = AboProtocol(AboConfig(level=1))
        assert abo.try_begin_alert(0.0) is None

    def test_request_then_assert(self):
        abo = AboProtocol(AboConfig(level=1))
        abo.request_alert()
        for _ in range(4):
            abo.note_activation()
        assert abo.try_begin_alert(100.0) == 100.0

    def test_min_act_constraint_blocks_early_assert(self):
        abo = AboProtocol(AboConfig(level=1))
        abo.request_alert()
        for _ in range(4):
            abo.note_activation()
        assert abo.try_begin_alert(0.0) is not None
        abo.end_episode()
        # Second alert needs 4 fresh activations.
        abo.request_alert()
        for _ in range(3):
            abo.note_activation()
            assert abo.try_begin_alert(1000.0) is None
        abo.note_activation()
        assert abo.try_begin_alert(1000.0) is not None

    def test_acts_until_alert_allowed(self):
        abo = AboProtocol(AboConfig(level=2))
        abo.request_alert()
        for _ in range(5):
            abo.note_activation()
        abo.try_begin_alert(0.0)
        assert abo.acts_until_alert_allowed() == 5
        abo.note_activation()
        assert abo.acts_until_alert_allowed() == 4

    def test_assert_time_respects_previous_episode(self):
        abo = AboProtocol(AboConfig(level=1))
        abo.request_alert()
        for _ in range(4):
            abo.note_activation()
        first = abo.try_begin_alert(0.0)
        abo.end_episode()
        abo.request_alert()
        for _ in range(4):
            abo.note_activation()
        second = abo.try_begin_alert(10.0)
        # The next episode cannot begin before the previous one ends.
        assert second >= first + abo.config.alert_duration

    def test_cancel_pending(self):
        # A request latched while the episode is in flight is absorbed
        # by that episode's RFMs.
        abo = asserted()
        abo.request_alert()
        abo.end_episode()
        assert not abo.alert_pending
        for _ in range(10):
            abo.note_activation()
        assert abo.try_begin_alert(5000.0) is None


class TestEpisodeOwnership:
    def test_window_end_is_inf_without_episode(self):
        abo = AboProtocol(AboConfig(level=1))
        assert abo.window_end == math.inf
        abo.request_alert()
        abo.try_begin_alert(0.0)
        assert abo.window_end < math.inf
        abo.end_episode()
        assert abo.window_end == math.inf

    def test_refuses_while_episode_in_flight(self):
        abo = asserted()
        abo.request_alert()
        for _ in range(abo.config.min_acts_between_alerts):
            abo.note_activation()
        assert abo.can_assert()
        assert abo.try_begin_alert(10_000.0) is None
        assert abo.alert_pending
        abo.end_episode()
        abo.request_alert()
        assert abo.try_begin_alert(10_000.0) == 10_000.0

    # At these assert times ``(t + 180) + L * 350`` and
    # ``t + (180 + L * 350)`` round to different floats, so the test
    # pins the association the simulator has always used.
    @pytest.mark.parametrize("level,now", [(1, 0.003), (2, 0.003), (4, 0.014)])
    def test_window_and_stall_end_match_engine_expressions(self, level, now):
        timing = DDR5_PRAC_TIMING
        abo = AboProtocol(AboConfig(level=level, timing=timing))
        abo.request_alert()
        assert abo.try_begin_alert(now) == now
        window_end = now + timing.t_abo_act_window
        assert abo.window_end == window_end
        assert abo.stall_end == window_end + level * timing.t_rfm
        assert abo.stall_end != now + abo.config.alert_duration
        # The next ALERT may assert no earlier than the episode's end,
        # taken the other way round.
        abo.end_episode()
        abo.request_alert()
        for _ in range(abo.config.min_acts_between_alerts):
            abo.note_activation()
        assert abo.try_begin_alert(0.0) == now + abo.config.alert_duration
