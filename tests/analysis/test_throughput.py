"""Tests for the Section 7 / Appendix D throughput models."""

import pytest

from repro.analysis.throughput import (
    BenignSlowdownModel,
    alert_window_throughput,
    continuous_alert_slowdown,
    mixed_throughput,
    single_bank_attack_throughput,
)


class TestAlertWindowThroughput:
    def test_level1_is_4_per_11_units(self):
        # Section 7.1: 4 ACTs per ~11 tRC units = 0.36x.
        assert alert_window_throughput(1) == pytest.approx(4 / 11.19, rel=0.02)

    def test_decreases_with_level(self):
        assert (
            alert_window_throughput(1)
            > alert_window_throughput(2)
            > alert_window_throughput(4)
        )


class TestContinuousAlertSlowdown:
    @pytest.mark.parametrize("level,expected", [(1, 2.8), (2, 3.8), (4, 4.9)])
    def test_appendix_d_values(self, level, expected):
        assert continuous_alert_slowdown(level) == pytest.approx(expected, rel=0.02)


class TestKernelThroughput:
    def test_single_row_kernel_loses_about_10_percent(self):
        tp = single_bank_attack_throughput(ath=64, rows=1)
        assert tp == pytest.approx(0.90, abs=0.02)

    def test_multi_row_kernel_matches_single(self):
        # Figure 13: the five-row kernel has the same ~10% loss.
        single = single_bank_attack_throughput(ath=64, rows=1)
        multi = single_bank_attack_throughput(ath=64, rows=5)
        assert multi == pytest.approx(single)

    def test_higher_ath_costs_less(self):
        assert single_bank_attack_throughput(ath=128) > single_bank_attack_throughput(ath=64)

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            single_bank_attack_throughput(ath=0)
        with pytest.raises(ValueError):
            single_bank_attack_throughput(ath=64, level=3)


class TestMixedThroughput:
    def test_ten_percent_alert_residency(self):
        # Section 7.1: 0.9 + 0.1 * 0.36 = 0.936x.
        assert mixed_throughput(0.1) == pytest.approx(0.936, abs=0.005)

    def test_full_alert_residency(self):
        assert mixed_throughput(1.0) == alert_window_throughput(1)

    def test_no_alerts(self):
        assert mixed_throughput(0.0) == 1.0

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            mixed_throughput(1.5)


class TestBenignModel:
    def test_acts_per_alert_for_benign_workloads(self):
        # Section 7.4: 99.6% benign activations -> >6500 ACTs per ALERT.
        model = BenignSlowdownModel(0.996, ath=64)
        assert model.acts_per_alert > 6500

    def test_attack_has_65_acts_per_alert(self):
        model = BenignSlowdownModel(0.0, ath=64)
        assert model.acts_per_alert == 65

    def test_fully_benign_never_alerts(self):
        assert BenignSlowdownModel(1.0).acts_per_alert == float("inf")
