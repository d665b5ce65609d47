"""Tests for the bank model: PRAC counters and danger accounting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.bank import Bank


class TestConstruction:
    def test_defaults(self):
        bank = Bank()
        assert bank.num_rows == 64 * 1024
        assert bank.blast_radius == 2

    @pytest.mark.parametrize("rows", [0, -5])
    def test_rejects_bad_row_count(self, rows):
        with pytest.raises(ValueError):
            Bank(num_rows=rows)

    def test_rejects_zero_blast_radius(self):
        with pytest.raises(ValueError):
            Bank(num_rows=16, blast_radius=0)


class TestCounters:
    def test_activate_increments(self, small_bank):
        assert small_bank.activate(10) == 1
        assert small_bank.activate(10) == 2
        assert small_bank.prac_count(10) == 2

    def test_independent_rows(self, small_bank):
        small_bank.activate(10)
        assert small_bank.prac_count(11) == 0

    def test_reset_prac(self, small_bank):
        small_bank.activate(10)
        small_bank.reset_prac(10)
        assert small_bank.prac_count(10) == 0

    def test_initial_counter_function(self):
        bank = Bank(num_rows=16, initial_counter=lambda row: row * 10)
        assert bank.prac_count(3) == 30
        assert bank.activate(3) == 31

    def test_initial_counter_prefills_every_row(self):
        calls = []

        def init(row):
            calls.append(row)
            return row % 3

        bank = Bank(num_rows=16, initial_counter=init)
        assert calls == list(range(16))
        assert [bank.prac_count(row) for row in range(16)] == [
            row % 3 for row in range(16)
        ]
        assert calls == list(range(16))  # reads never call it again
        bank.reset_prac(4)
        assert bank.touched_rows() == {
            row: row % 3 for row in range(16) if row % 3 and row != 4
        }

    @pytest.mark.parametrize("value, error", [
        (1.5, TypeError), ("7", TypeError), (2**63, OverflowError),
        (-2**63 - 1, OverflowError),
    ], ids=["float", "str", "above-int64", "below-int64"])
    def test_initial_counter_must_be_an_int64(self, value, error):
        """A PRAC counter is a 64-bit integer: an initial value of
        another type or past that range fails construction instead of
        landing in a counter."""
        with pytest.raises(error):
            Bank(num_rows=16, initial_counter=lambda row: value)

    @pytest.mark.parametrize("row", [-1, 256, 1000])
    def test_out_of_range_rows_rejected(self, small_bank, row):
        with pytest.raises(IndexError):
            small_bank.activate(row)


class TestDangerAccounting:
    def test_activation_exposes_victims(self, small_bank):
        small_bank.activate(10)
        assert small_bank.danger_count(9) == 1
        assert small_bank.danger_count(11) == 1
        assert small_bank.danger_count(8) == 1
        assert small_bank.danger_count(12) == 1
        assert small_bank.danger_count(10) == 0

    def test_blast_radius_limits_exposure(self, small_bank):
        small_bank.activate(10)
        assert small_bank.danger_count(7) == 0
        assert small_bank.danger_count(13) == 0

    def test_exposure_accumulates_from_both_sides(self, small_bank):
        small_bank.activate(10)
        small_bank.activate(12)
        # Row 11 is a victim of both aggressors.
        assert small_bank.danger_count(11) == 2

    def test_max_danger_highwater(self, small_bank):
        for _ in range(5):
            small_bank.activate(10)
        assert small_bank.max_danger == 5
        assert small_bank.max_danger_row in (8, 9, 11, 12)

    def test_refresh_clears_exposure(self, small_bank):
        small_bank.activate(10)
        small_bank.refresh_row_data(11)
        assert small_bank.danger_count(11) == 0
        # High-water mark is sticky (it is the security verdict).
        assert small_bank.max_danger == 1

    def test_boundary_rows(self, small_bank):
        small_bank.activate(0)
        assert small_bank.danger_count(1) == 1
        small_bank.activate(255)
        assert small_bank.danger_count(254) == 1

    def test_track_danger_disabled(self):
        bank = Bank(num_rows=16, track_danger=False)
        bank.activate(5)
        assert bank.danger_count(6) == 0
        assert bank.max_danger == 0


class TestMitigation:
    def test_mitigate_refreshes_victims(self, small_bank):
        for _ in range(10):
            small_bank.activate(20)
        extra = small_bank.mitigate_aggressor(20)
        assert extra == 5  # 4 victims + 1 counter reset
        for victim in (18, 19, 21, 22):
            assert small_bank.danger_count(victim) == 0
        assert small_bank.prac_count(20) == 0

    def test_mitigate_without_counter_reset(self, small_bank):
        for _ in range(10):
            small_bank.activate(20)
        extra = small_bank.mitigate_aggressor(20, reset_counter=False)
        assert extra == 4
        assert small_bank.prac_count(20) == 10

    def test_mitigation_activation_accounting(self, small_bank):
        small_bank.activate(20)
        small_bank.mitigate_aggressor(20)
        assert small_bank.mitigation_activations == 5

    def test_victims_of_interior_row(self, small_bank):
        assert list(small_bank.victims_of(10)) == [8, 9, 11, 12]

    def test_victims_of_edge_row(self, small_bank):
        assert list(small_bank.victims_of(0)) == [1, 2]
        assert list(small_bank.victims_of(255)) == [253, 254]


class TestIntrospection:
    def test_row_counters(self, small_bank):
        small_bank.activate(5)
        assert small_bank.prac_count(5) == 1
        assert small_bank.danger_count(5) == 0

    def test_touched_rows(self, small_bank):
        small_bank.activate(1)
        small_bank.activate(2)
        small_bank.activate(2)
        assert small_bank.touched_rows() == {1: 1, 2: 2}

    def test_prac_counts_accumulate_per_row(self, small_bank):
        for _ in range(5):
            small_bank.activate(1)
        small_bank.activate(2)
        assert [small_bank.prac_count(row) for row in (1, 2, 3)] == [5, 1, 0]


class TestDangerInvariants:
    @given(
        acts=st.lists(st.integers(min_value=2, max_value=60), min_size=1, max_size=80)
    )
    @settings(max_examples=50, deadline=None)
    def test_victim_exposure_equals_neighbor_activations(self, acts):
        """danger(v) == total activations of v's aggressor neighbours."""
        bank = Bank(num_rows=64)
        for row in acts:
            bank.activate(row)
        for victim in range(64):
            expected = sum(
                1
                for row in acts
                if row != victim and abs(row - victim) <= bank.blast_radius
            )
            assert bank.danger_count(victim) == expected

    @given(
        acts=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_max_danger_is_highwater(self, acts):
        bank = Bank(num_rows=32)
        running_max = 0
        for row in acts:
            bank.activate(row)
            current = max(bank.danger_count(v) for v in range(32))
            running_max = max(running_max, current)
        assert bank.max_danger == running_max
