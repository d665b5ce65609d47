"""Tests for the feinting bound (paper Table 2)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.feinting_model import (
    feinting_bound,
    feinting_bound_exact,
    harmonic,
)
from repro.dram.timing import DramTiming
from repro.report.paper_values import TABLE2_FEINTING


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic(2) == 1.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)

    @given(m=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=30, deadline=None)
    def test_logarithmic_growth_bounds(self, m):
        import math

        h = harmonic(m)
        assert math.log(m) < h <= math.log(m) + 1.0


class TestTable2:
    @pytest.mark.parametrize("rate,expected", sorted(TABLE2_FEINTING.items()))
    def test_bound_matches_paper(self, rate, expected):
        # Closed form within 1% of the published Table 2 values.
        assert feinting_bound(rate) == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("rate", [1, 2, 3, 4, 5])
    def test_exact_close_to_closed_form(self, rate):
        exact = feinting_bound_exact(rate)
        closed = feinting_bound(rate)
        assert abs(exact - closed) / closed < 0.01

    def test_bound_monotone_in_rate(self):
        values = [feinting_bound(k) for k in range(1, 6)]
        assert values == sorted(values)

    def test_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            feinting_bound(0)
        with pytest.raises(ValueError):
            feinting_bound_exact(-1)


class TestScaledWindows:
    def test_scales_with_window(self, fast_timing):
        # 64 REFs per window, rate 4 -> 16 periods of 268 ACTs.
        bound = feinting_bound(4, timing=fast_timing)
        assert bound == pytest.approx(268 * harmonic(16))

    @given(k=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_exact_never_exceeds_closed_form(self, k):
        timing = DramTiming(t_refw=256 * 3900.0)
        assert feinting_bound_exact(k, timing) <= feinting_bound(k, timing) + 1
