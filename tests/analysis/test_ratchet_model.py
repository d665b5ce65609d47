"""Tests for the Ratchet analytical model (paper Appendix A, Table 7)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.ratchet_model import (
    RatchetModel,
    ratchet_safe_trh,
    usable_window_ns,
)
from repro.report.paper_values import TABLE7_SAFE_TRH


class TestModelComponents:
    def test_inter_alert_acts(self):
        assert RatchetModel(level=1).inter_alert_acts == 4
        assert RatchetModel(level=2).inter_alert_acts == 5
        assert RatchetModel(level=4).inter_alert_acts == 7

    def test_inter_alert_time_level1(self):
        assert RatchetModel(level=1).inter_alert_time == 582.0

    def test_priming_time_eq1(self):
        model = RatchetModel(level=1)
        assert model.priming_time(100, 64) == 100 * 64 * 52.0

    def test_alert_phase_time_eq2(self):
        model = RatchetModel(level=2)
        assert model.alert_phase_time(100) == pytest.approx(50 * model.inter_alert_time)

    def test_total_time_eq3(self):
        model = RatchetModel(level=1)
        assert model.total_time(10, 64) == model.priming_time(10, 64) + model.alert_phase_time(10)

    def test_usable_window_is_about_28_6ms(self):
        # Appendix A: tREFW minus refresh time = 28.64 ms.
        assert usable_window_ns() == pytest.approx(28.64e6, rel=0.005)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            RatchetModel(level=3)

    def test_invalid_ath(self):
        with pytest.raises(ValueError):
            RatchetModel(level=1).safe_trh(0)


class TestTable7:
    @pytest.mark.parametrize(
        "ath,level,expected", [(a, l, v) for (a, l), v in sorted(TABLE7_SAFE_TRH.items())]
    )
    def test_safe_trh_matches_paper(self, ath, level, expected):
        # Within one activation of every Table 7 cell (the paper's
        # rounding of the fractional log term is not specified).
        assert abs(ratchet_safe_trh(ath, level) - expected) <= 1

    @pytest.mark.parametrize("ath,expected", [(32, 69), (64, 99), (128, 161)])
    def test_level1_column_exact(self, ath, expected):
        assert ratchet_safe_trh(ath, 1) == expected

    def test_headline_trh_99(self):
        # Section 5.3: MOAT with ATH=64 tolerates T_RH of 99.
        assert ratchet_safe_trh(64, 1) == 99

    def test_fig10_ath128(self):
        assert ratchet_safe_trh(128, 1) == 161


class TestSweep:
    @given(ath=st.integers(min_value=8, max_value=256))
    @settings(max_examples=40, deadline=None)
    def test_trh_strictly_above_ath(self, ath):
        # Delayed ALERTs always cost something: T_RH > ATH + M.
        for level in (1, 2, 4):
            model = RatchetModel(level=level)
            assert model.safe_trh(ath) > ath + model.inter_alert_acts - 1

    @given(ath=st.integers(min_value=8, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_trh_monotone_in_ath(self, ath):
        assert ratchet_safe_trh(ath + 8, 1) > ratchet_safe_trh(ath, 1)

    def test_pool_shrinks_with_ath(self):
        model = RatchetModel(level=1)
        assert model.max_pool(32) > model.max_pool(64) > model.max_pool(128)

    def test_sub_50_trh_impractical(self):
        """Section 5.3: tolerating T_RH below ~40-50 is impractical
        because even tiny ATH leaves a delayed-ALERT tail."""
        assert ratchet_safe_trh(1, 1) > 35
