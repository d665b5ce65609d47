"""Tests for the MOAT policy (paper Section 4 and Appendix D)."""

import pytest

from repro.mitigations.moat import MoatPolicy, TrackerEntry


class TestConstruction:
    def test_defaults(self):
        moat = MoatPolicy()
        assert moat.ath == 64
        assert moat.eth == 32
        assert moat.level == 1

    def test_eth_defaults_to_half_ath(self):
        assert MoatPolicy(ath=128).eth == 64

    def test_explicit_eth(self):
        assert MoatPolicy(ath=64, eth=48).eth == 48

    @pytest.mark.parametrize("level", [0, 3, 8])
    def test_bad_level(self, level):
        with pytest.raises(ValueError):
            MoatPolicy(level=level)

    def test_bad_ath(self):
        with pytest.raises(ValueError):
            MoatPolicy(ath=0)

    def test_eth_must_not_exceed_ath(self):
        with pytest.raises(ValueError):
            MoatPolicy(ath=64, eth=65)


class TestTracking:
    def test_below_eth_not_tracked(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 32)
        assert moat.tracker == []

    def test_above_eth_tracked(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 33)
        assert moat.tracker == [TrackerEntry(5, 33)]

    def test_tracked_count_follows_activations(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 33)
        moat.on_activate(5, 40)
        assert moat.tracker[0].count == 40

    def test_higher_count_replaces_entry_at_level1(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 33)
        moat.on_activate(9, 50)
        assert moat.tracker == [TrackerEntry(9, 50)]

    def test_lower_count_does_not_replace(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 50)
        moat.on_activate(9, 34)
        assert moat.tracker == [TrackerEntry(5, 50)]

    def test_tie_does_not_replace(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 50)
        moat.on_activate(9, 50)
        assert moat.tracker[0].row == 5

    def test_level4_tracks_four_rows(self):
        moat = MoatPolicy(ath=64, eth=32, level=4)
        for row, count in [(1, 33), (2, 40), (3, 50), (4, 60)]:
            moat.on_activate(row, count)
        assert len(moat.tracker) == 4
        moat.on_activate(5, 45)  # replaces the minimum (row 1 at 33)
        rows = {e.row for e in moat.tracker}
        assert rows == {2, 3, 4, 5}


class TestAlertCondition:
    def test_crossing_ath_requests_alert(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 65)
        assert moat.alert_requested
        assert moat.alerts_requested == 1

    def test_at_ath_does_not_request(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 64)
        assert not moat.alert_requested

    def test_offending_row_force_tracked(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(1, 60)
        moat.on_activate(2, 65)
        # Row 2 must be present so the reactive mitigation services it.
        assert any(e.row == 2 for e in moat.tracker)

    def test_needs_alert_tracks_over_ath_entries(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 65)
        assert moat.needs_alert()
        moat.select_reactive(1)
        assert not moat.needs_alert()


class TestProactiveSelection:
    def test_pipeline_cta_to_cma(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 40)
        # First boundary: nothing completes, row 5 latched into CMA.
        assert moat.select_proactive() is None
        assert moat.cma == 5
        # Second boundary: row 5's mitigation completes.
        assert moat.select_proactive() == 5
        assert moat.cma is None

    def test_highest_count_latched(self):
        moat = MoatPolicy(ath=64, eth=32, level=4)
        for row, count in [(1, 33), (2, 55), (3, 44)]:
            moat.on_activate(row, count)
        moat.select_proactive()
        assert moat.cma == 2

    def test_empty_tracker_idles(self):
        moat = MoatPolicy()
        assert moat.select_proactive() is None
        assert moat.cma is None


class TestReactiveSelection:
    def test_reactive_services_max(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 65)
        assert moat.select_reactive(1) == [5]
        assert moat.tracker == []

    def test_reactive_includes_cma(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 40)
        moat.select_proactive()  # row 5 now in CMA
        assert moat.select_reactive(1) == [5]
        assert moat.cma is None

    def test_reactive_keeps_unserviced_cma(self):
        moat = MoatPolicy(ath=64, eth=32)
        moat.on_activate(5, 40)
        moat.select_proactive()  # CMA = 5
        moat.on_activate(9, 70)  # tracked above ATH
        rows = moat.select_reactive(1)
        assert rows == [9]
        # The in-flight proactive mitigation of row 5 is preserved.
        assert moat.cma == 5

    def test_reactive_level4_services_up_to_four(self):
        moat = MoatPolicy(ath=64, eth=32, level=4)
        for row, count in [(1, 40), (2, 50), (3, 60), (4, 70)]:
            moat.on_activate(row, count)
        rows = moat.select_reactive(4)
        assert rows == [4, 3, 2, 1]


class TestSram:
    @pytest.mark.parametrize("level,expected", [(1, 7), (2, 10), (4, 16)])
    def test_sram_bytes_per_bank(self, level, expected):
        # Section 6.5 / Appendix D: 7/10/16 bytes per bank.
        assert MoatPolicy(level=level).sram_bytes() == expected

    def test_describe_mentions_sram(self):
        assert "7 B/bank" in MoatPolicy().describe()
