"""Tests for the refresh engine: groups, postponement, counter reset."""

import random

import pytest

from repro.dram.bank import Bank
from repro.dram.refresh import CounterResetPolicy, RefreshEngine


def make(policy=CounterResetPolicy.SAFE, rows=64, groups=8):
    bank = Bank(num_rows=rows)
    return bank, RefreshEngine(bank, num_groups=groups, reset_policy=policy)


class TestGroups:
    def test_rows_per_group(self):
        _, engine = make()
        assert engine.rows_per_group == 8

    def test_group_rows(self):
        _, engine = make()
        assert engine.group_rows(0) == list(range(8))
        assert engine.group_rows(7) == list(range(56, 64))

    def test_group_out_of_range(self):
        _, engine = make()
        with pytest.raises(IndexError):
            engine.group_rows(8)

    def test_rows_must_divide_evenly(self):
        bank = Bank(num_rows=60)
        with pytest.raises(ValueError):
            RefreshEngine(bank, num_groups=8)

    def test_pointer_advances_and_wraps(self):
        _, engine = make()
        for expected in list(range(8)) + [0, 1]:
            assert engine.execute_ref() == expected


class TestDataRefresh:
    def test_refresh_clears_victim_exposure(self):
        bank, engine = make()
        bank.activate(3)  # exposes rows 1,2,4,5
        engine.execute_ref()  # group 0 = rows 0..7
        for victim in (1, 2, 4, 5):
            assert bank.danger_count(victim) == 0

    def test_refresh_only_covers_its_group(self):
        bank, engine = make()
        bank.activate(10)  # group 1
        engine.execute_ref()  # refreshes group 0 only
        assert bank.danger_count(9) == 1


class TestCounterResetPolicies:
    def test_free_running_never_resets(self):
        bank, engine = make(CounterResetPolicy.FREE_RUNNING)
        bank.activate(2)
        engine.execute_ref()
        assert bank.prac_count(2) == 1

    def test_unsafe_resets_group_counters(self):
        bank, engine = make(CounterResetPolicy.UNSAFE)
        bank.activate(2)
        engine.execute_ref()
        assert bank.prac_count(2) == 0

    def test_safe_resets_but_shadows_boundary_rows(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        for _ in range(5):
            bank.activate(6)  # second-to-last row of group 0
            engine.note_activation(6)
        engine.execute_ref()
        assert bank.prac_count(6) == 0
        assert engine.shadow == {6: 5, 7: 0}

    def test_shadow_count_matches_blast_radius(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        engine.execute_ref()
        assert len(engine.shadow) == bank.blast_radius

    def test_shadow_dropped_at_next_group(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        engine.execute_ref()  # shadows rows 6, 7
        engine.execute_ref()  # group 1 refreshed: rows 6,7 now safe
        assert set(engine.shadow) == {14, 15}


class TestEffectiveCount:
    def test_effective_count_uses_shadow(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        for _ in range(9):
            bank.activate(7)
            engine.note_activation(7)
        engine.execute_ref()
        # Counter reset, but the shadow holds the true count.
        assert bank.prac_count(7) == 0
        assert engine.effective_count(7) == 9

    def test_note_activation_increments_shadow(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        for _ in range(4):
            bank.activate(7)
            engine.note_activation(7)
        engine.execute_ref()
        bank.activate(7)
        assert engine.note_activation(7) == 5
        assert engine.effective_count(7) == 5

    def test_effective_count_without_shadow(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        bank.activate(30)
        assert engine.effective_count(30) == 1

    def test_clear_shadow(self):
        bank, engine = make(CounterResetPolicy.SAFE)
        engine.execute_ref()
        engine.clear_shadow(7)
        assert 7 not in engine.shadow


class TestPostponement:
    def test_postpone_up_to_limit(self):
        _, engine = make()
        assert engine.postpone()
        assert engine.postpone()
        assert not engine.postpone()
        assert engine.postponed == 2

    def test_execute_ref_reduces_deficit(self):
        _, engine = make()
        engine.postpone()
        engine.execute_ref()
        assert engine.postponed == 0

    def test_custom_postpone_limit(self):
        bank = Bank(num_rows=64)
        engine = RefreshEngine(bank, num_groups=8, max_postponed=0)
        assert not engine.postpone()


def per_row_ref(engine):
    """One REF applied row by row: the reference for the one-slice
    counter reset of :meth:`RefreshEngine.execute_ref`."""
    bank = engine.bank
    group = engine.pointer
    rows = engine.group_rows(group)
    for row in rows:
        bank.refresh_row_data(row)
    if engine.reset_policy is CounterResetPolicy.UNSAFE:
        for row in rows:
            bank.reset_prac(row)
    elif engine.reset_policy is CounterResetPolicy.SAFE:
        engine.shadow.clear()
        for row in rows[-bank.blast_radius:]:
            engine.shadow[row] = bank.prac_count(row)
        for row in rows:
            bank.reset_prac(row)
    engine.pointer = (engine.pointer + 1) % engine.num_groups
    if engine.postponed > 0:
        engine.postponed -= 1
    return group


class TestSliceReset:
    @pytest.mark.parametrize("policy", list(CounterResetPolicy))
    @pytest.mark.parametrize("rows,groups,blast_radius", [
        (64, 8, 2),
        (64, 8, 1),
        (16, 8, 2),  # blast radius == rows per group
        (16, 8, 3),  # blast radius > rows per group
        (64, 1, 2),  # one group: every REF wraps to group 0
    ])
    @pytest.mark.parametrize("track_danger", [True, False])
    def test_matches_per_row_reference(self, policy, rows, groups,
                                       blast_radius, track_danger):
        rng = random.Random(rows * groups + blast_radius)
        pairs = []
        for _ in range(2):
            bank = Bank(num_rows=rows, blast_radius=blast_radius,
                        track_danger=track_danger)
            pairs.append((bank, RefreshEngine(bank, num_groups=groups,
                                              reset_policy=policy)))
        (bank, engine), (ref_bank, ref_engine) = pairs
        # Three waves: every group is refreshed, and the pointer wraps
        # from the last group to group 0, more than once.
        for _ in range(3 * groups):
            for _ in range(rng.randrange(20)):
                row = rng.randrange(rows)
                for b, e in pairs:
                    b.activate(row)
                    e.note_activation(row)
            assert engine.execute_ref() == per_row_ref(ref_engine)
            assert bank.touched_rows() == ref_bank.touched_rows()
            assert engine.shadow == ref_engine.shadow
            assert engine.pointer == ref_engine.pointer
            assert ([bank.danger_count(r) for r in range(rows)]
                    == [ref_bank.danger_count(r) for r in range(rows)])
