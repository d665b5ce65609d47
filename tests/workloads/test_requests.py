"""Tests of the closed-loop request generators."""

import pytest

from repro.workloads.requests import (
    McWorkload,
    generate_requests,
)


def stream_of(requests, subchannel, bank):
    return [
        (r.issue_ns, r.row, r.is_write)
        for r in requests
        if r.subchannel == subchannel and r.bank == bank
    ]


class TestWorkloadValidation:
    def test_rejects_bad_process(self):
        with pytest.raises(ValueError, match="arrival process"):
            McWorkload(process="constant")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="positive"):
            McWorkload(reads_per_trefi_per_bank=0.0)

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            McWorkload(hot_fraction=1.5)
        with pytest.raises(ValueError):
            McWorkload(write_fraction=-0.1)

    @pytest.mark.parametrize(
        "field", ["reads_per_trefi_per_bank", "burst_trefi", "idle_trefi"]
    )
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_arrival_parameters(self, field, value):
        """An infinite rate used to hang the Poisson draw (every gap is
        0.0), an infinite burst to divide by zero, and NaN to empty the
        stream silently."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            McWorkload(process="bursty", **{field: value})


class TestDisplayName:
    def test_presets_keep_their_short_spelling(self):
        workload = McWorkload(process="bursty", hot_fraction=0.5,
                              write_fraction=0.25, burst_trefi=2.0,
                              idle_trefi=32.0)
        assert workload.display_name() == "bursty-r24-hot0.5x8-w0.25-b2i32"

    @pytest.mark.parametrize("field, a, b", [
        ("hot_fraction", 0.3333333, 1 / 3),
        ("reads_per_trefi_per_bank", 24.0, 24.0000001),
        ("write_fraction", 0.1234567, 0.12345671),
        ("burst_trefi", 2.0, 2.0000001),
    ])
    def test_distinct_values_keep_distinct_names(self, field, a, b):
        """``:g`` keeps 6 significant digits; a value it cannot spell
        exactly is spelled with ``repr`` instead, so two workloads never
        share a name (nor the RNG salt derived from it)."""
        first = McWorkload(process="bursty", **{field: a})
        second = McWorkload(process="bursty", **{field: b})
        assert first.display_name() != second.display_name()
        stream = dict(banks_per_subchannel=1, n_trefi=8)
        assert generate_requests(first, **stream).row != (
            generate_requests(second, **stream).row
        )


class TestGeneration:
    def test_sorted_and_in_horizon(self):
        reqs = generate_requests(McWorkload(), banks_per_subchannel=2,
                                 n_trefi=64)
        times = [r.issue_ns for r in reqs]
        assert times == sorted(times)
        assert all(0.0 <= t < 64 * 3900.0 for t in times)

    def test_mean_rate_calibrated(self):
        workload = McWorkload(reads_per_trefi_per_bank=24.0)
        reqs = generate_requests(workload, banks_per_subchannel=2,
                                 n_trefi=512)
        expected = 24.0 * 2 * 512
        assert abs(len(reqs) - expected) / expected < 0.1

    def test_bursty_mean_rate_calibrated(self):
        """The ON rate is duty-cycle scaled, so the long-run mean
        matches the configured rate."""
        workload = McWorkload(process="bursty",
                              reads_per_trefi_per_bank=24.0)
        reqs = generate_requests(workload, banks_per_subchannel=2,
                                 n_trefi=1024)
        expected = 24.0 * 2 * 1024
        assert abs(len(reqs) - expected) / expected < 0.15

    def test_hot_set_respected(self):
        workload = McWorkload(hot_fraction=1.0, hot_rows=4)
        reqs = generate_requests(workload, banks_per_subchannel=1,
                                 n_trefi=64)
        assert all(r.row < 4 for r in reqs)

    def test_cold_rows_avoid_hot_set(self):
        workload = McWorkload(hot_fraction=0.0, hot_rows=4)
        reqs = generate_requests(workload, banks_per_subchannel=1,
                                 n_trefi=64)
        assert all(r.row >= 4 for r in reqs)

    def test_deterministic(self):
        workload = McWorkload(hot_fraction=0.3)
        a = generate_requests(workload, n_trefi=64)
        b = generate_requests(workload, n_trefi=64)
        assert a == b


class TestSeedingDiscipline:
    """The documented stability guarantees of sub-channel-major
    seeding (``seed + sub * banks + bank``)."""

    def test_adding_subchannels_preserves_streams(self):
        small = generate_requests(McWorkload(), num_subchannels=1,
                                  banks_per_subchannel=2, n_trefi=32)
        large = generate_requests(McWorkload(), num_subchannels=2,
                                  banks_per_subchannel=2, n_trefi=32)
        for bank in range(2):
            assert stream_of(small, 0, bank) == stream_of(large, 0, bank)

    def test_sub0_streams_survive_bank_growth(self):
        small = generate_requests(McWorkload(), num_subchannels=2,
                                  banks_per_subchannel=2, n_trefi=32)
        large = generate_requests(McWorkload(), num_subchannels=2,
                                  banks_per_subchannel=4, n_trefi=32)
        for bank in range(2):
            assert stream_of(small, 0, bank) == stream_of(large, 0, bank)
        # Higher sub-channels re-seed when the bank count changes —
        # the documented limit of the discipline.
        assert stream_of(small, 1, 0) != stream_of(large, 1, 0)
