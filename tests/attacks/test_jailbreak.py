"""Tests for the Jailbreak attack on Panopticon (paper Section 3)."""

import random

import pytest

from repro.attacks.jailbreak import (
    is_heavy_weight,
    iteration_acts_closed_form,
    randomized_jailbreak_curve,
    run_deterministic_jailbreak,
    run_randomized_jailbreak_iteration,
)


class TestDeterministicJailbreak:
    @pytest.fixture(scope="class")
    def result(self):
        return run_deterministic_jailbreak()

    def test_many_times_threshold(self, result):
        # Paper: 1152 ACTs (9x the 128 queueing threshold); our timing
        # model achieves >8.5x without triggering any ALERT.
        assert result.acts_on_attack_row >= 8.5 * 128

    def test_no_alert_raised(self, result):
        # The pattern is paced to avoid queue overflow.
        assert result.alerts == 0

    def test_ground_truth_danger_matches(self, result):
        assert result.max_danger >= result.acts_on_attack_row - 2

    def test_smaller_queue_hurts_less(self):
        small = run_deterministic_jailbreak(queue_entries=2)
        full = run_deterministic_jailbreak(queue_entries=8)
        # The paper's recommendation: shorter queues are safer.
        assert small.acts_on_attack_row < full.acts_on_attack_row


class TestHeavyWeight:
    def test_probability_is_one_quarter(self):
        heavy = sum(1 for c in range(256) if is_heavy_weight(c))
        assert heavy / 256 == 0.25

    def test_crossing_semantics(self):
        assert is_heavy_weight(96)
        assert is_heavy_weight(127)
        assert not is_heavy_weight(95)
        assert is_heavy_weight(224)
        assert not is_heavy_weight(128)


class TestRandomizedIteration:
    def test_all_heavy_reaches_many_times_threshold(self):
        result = run_randomized_jailbreak_iteration(
            initial_counters=[120] * 8, attack_row_counter=0
        )
        assert result.acts_on_attack_row >= 6 * 128
        assert result.alerts == 0

    def test_no_heavy_is_bounded(self):
        result = run_randomized_jailbreak_iteration(
            initial_counters=[0] * 8, attack_row_counter=0
        )
        assert result.acts_on_attack_row <= 3 * 128

    def test_closed_form_tracks_simulation(self):
        """The sampled curve's per-iteration model stays within one
        service period of the full simulation."""
        for heavy in (0, 4, 8):
            counters = [120] * heavy + [0] * (8 - heavy)
            sim = run_randomized_jailbreak_iteration(
                initial_counters=counters, attack_row_counter=64
            )
            model = iteration_acts_closed_form(heavy, 64)
            assert abs(sim.acts_on_attack_row - model) <= 2 * 128

    def test_wrong_decoy_count_rejected(self):
        with pytest.raises(ValueError):
            run_randomized_jailbreak_iteration([0] * 3, 0)


class TestRandomizedCurve:
    def test_curve_monotone(self):
        curve = randomized_jailbreak_curve([4, 64, 1024, 16384], seed=1)
        values = [curve[n] for n in (4, 64, 1024, 16384)]
        assert values == sorted(values)

    def test_enough_iterations_breaks_threshold(self):
        # Figure 5: by ~2^17 iterations the attacker reaches ~1145 ACTs.
        curve = randomized_jailbreak_curve([2**17], seed=0)
        assert curve[2**17] >= 8 * 128

    def test_deterministic_given_seed(self):
        a = randomized_jailbreak_curve([256], seed=5)
        b = randomized_jailbreak_curve([256], seed=5)
        assert a == b


def reference_curve(iteration_counts, threshold=128, queue_entries=8,
                    prime_acts=32, seed=0):
    """The per-draw sampler: one ``randrange`` call per counter, the
    oracle for the bulk draws of :func:`randomized_jailbreak_curve`."""
    rng = random.Random(seed)
    results = {}
    best = 0
    done = 0
    counter_range = 2 * threshold
    for target in sorted(iteration_counts):
        while done < target:
            decoys = [rng.randrange(counter_range) for _ in range(queue_entries)]
            attack_counter = rng.randrange(counter_range)
            heavy = sum(
                1 for c in decoys if is_heavy_weight(c, threshold, prime_acts)
            )
            acts = iteration_acts_closed_form(
                heavy, attack_counter, threshold, queue_entries
            )
            best = max(best, acts)
            done += 1
        results[target] = best
    return results


#: The iteration budgets of the fig5-curve model preset.
FIG5_BUDGETS = [2**k for k in range(2, 21, 3)]


class TestBulkSampler:
    """The bulk draws reproduce the per-draw sampler exactly."""

    @pytest.mark.parametrize("seed", range(4))
    def test_fig5_curve_budgets(self, seed):
        # One call covers every budget: they share one stream prefix.
        assert (randomized_jailbreak_curve(FIG5_BUDGETS, seed=seed)
                == reference_curve(FIG5_BUDGETS, seed=seed))

    @pytest.mark.parametrize("threshold,queue_entries,prime_acts", [
        (1, 8, 32),      # 2 * threshold = 2: one-bit draws
        (64, 8, 32),
        (100, 8, 32),    # 2 * threshold not a power of two
        (128, 8, 128),   # prime_acts == threshold: every decoy heavy
        (128, 2, 32),
        (128, 4, 32),
        (200, 8, 32),    # 2 * threshold above 256
        (1000, 4, 250),
        (128, 8, 0),     # no decoy is ever heavy
        (5, 3, -3),
        (2**29, 8, 2**28),
    ])
    @pytest.mark.parametrize("seed", range(2))
    def test_non_default_parameters(self, threshold, queue_entries,
                                    prime_acts, seed):
        budgets = [1, 3, 1024, 1025, 5000]
        kwargs = dict(threshold=threshold, queue_entries=queue_entries,
                      prime_acts=prime_acts, seed=seed)
        assert (randomized_jailbreak_curve(budgets, **kwargs)
                == reference_curve(budgets, **kwargs))

    @pytest.mark.parametrize("kwargs", [
        {"queue_entries": 0},
        {"queue_entries": 256},  # heavy counts are one byte each
        {"threshold": 0},
        {"threshold": 2**30},
    ])
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            randomized_jailbreak_curve([4], **kwargs)
