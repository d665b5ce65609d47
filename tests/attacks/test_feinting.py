"""Tests for the feinting attack simulation (paper Table 2)."""

import pytest

from repro.analysis.feinting_model import feinting_bound
from repro.attacks.base import AttackRunConfig
from repro.attacks.feinting import run_feinting
from repro.dram.timing import DramTiming


class TestScaledFeinting:
    @pytest.fixture(scope="class")
    def result(self):
        # 64 periods at rate 4 = a small refresh window.
        return run_feinting(trefi_per_mitigation=4, periods=64)

    def test_survivor_tracks_harmonic_bound(self, result):
        bound = 268 * sum(1.0 / i for i in range(1, 65))
        # The simulated attack achieves most of the analytical bound
        # (losses: REF interruptions, integer splits).
        assert result.acts_on_attack_row >= 0.85 * bound
        assert result.acts_on_attack_row <= bound + 268

    def test_far_exceeds_single_period_budget(self, result):
        # The whole point: one row accumulates many periods' worth.
        assert result.acts_on_attack_row > 3 * 268

    def test_no_alerts_in_transparent_scheme(self, result):
        assert result.alerts == 0


class TestRateSweep:
    def test_higher_rate_tolerates_less(self):
        fast = run_feinting(trefi_per_mitigation=1, periods=32)
        slow = run_feinting(trefi_per_mitigation=4, periods=32)
        # Same period count: the rate-4 scheme lets each period carry
        # 4x the activations.
        assert slow.acts_on_attack_row > 2 * fast.acts_on_attack_row

    def test_full_small_window(self, fast_timing):
        result = run_feinting(trefi_per_mitigation=4,
                              run=AttackRunConfig(timing=fast_timing))
        bound = feinting_bound(4, fast_timing)
        assert result.acts_on_attack_row >= 0.8 * bound


class TestValidation:
    def test_periods_positive(self):
        with pytest.raises(ValueError):
            run_feinting(periods=0)

    def test_bank_capacity_check(self):
        with pytest.raises(ValueError):
            run_feinting(periods=4096, run=AttackRunConfig(
                rows_per_bank=1024, num_refresh_groups=128))
