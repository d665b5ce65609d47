"""Tests for the Panopticon policy (paper Section 3, Appendix B)."""

import pytest

from repro.mitigations.panopticon import PanopticonPolicy


class TestConstruction:
    def test_defaults(self):
        pan = PanopticonPolicy()
        assert pan.queue_threshold == 128
        assert pan.queue_entries == 8

    @pytest.mark.parametrize("threshold", [0, 100, -128])
    def test_threshold_must_be_power_of_two(self, threshold):
        with pytest.raises(ValueError):
            PanopticonPolicy(queue_threshold=threshold)

    def test_queue_entries_positive(self):
        with pytest.raises(ValueError):
            PanopticonPolicy(queue_entries=0)


class TestEnqueue:
    def test_enqueue_on_threshold_crossing(self):
        pan = PanopticonPolicy(queue_threshold=128)
        pan.on_activate(5, 127)
        assert list(pan.queue) == []
        pan.on_activate(5, 128)
        assert list(pan.queue) == [5]

    def test_enqueue_on_every_multiple(self):
        pan = PanopticonPolicy(queue_threshold=128)
        pan.on_activate(5, 128)
        pan.on_activate(5, 256)
        assert list(pan.queue) == [5, 5]

    def test_count_zero_does_not_enqueue(self):
        pan = PanopticonPolicy(queue_threshold=128)
        pan.on_activate(5, 0)
        assert list(pan.queue) == []

    def test_fifo_order(self):
        pan = PanopticonPolicy(queue_threshold=128)
        for row in (3, 1, 2):
            pan.on_activate(row, 128)
        assert pan.select_proactive() == 3
        assert pan.select_proactive() == 1
        assert pan.select_proactive() == 2

    def test_overflow_raises_alert(self):
        pan = PanopticonPolicy(queue_threshold=128, queue_entries=2)
        pan.on_activate(1, 128)
        pan.on_activate(2, 128)
        assert not pan.alert_requested
        pan.on_activate(3, 128)
        assert pan.alert_requested
        assert pan.overflows == 1
        # The overflowing insertion is dropped (no counter in queue to
        # merge into).
        assert list(pan.queue) == [1, 2]


class TestService:
    def test_proactive_empty(self):
        assert PanopticonPolicy().select_proactive() is None

    def test_reactive_pops_fifo(self):
        pan = PanopticonPolicy(queue_threshold=128)
        for row in (1, 2, 3):
            pan.on_activate(row, 128)
        assert pan.select_reactive(2) == [1, 2]
        assert list(pan.queue) == [3]


class TestDrainAllVariant:
    def test_proactive_batch_is_two(self):
        assert PanopticonPolicy(drain_all_on_ref=True).proactive_batch == 2
        assert PanopticonPolicy().proactive_batch == 1

    def test_needs_alert_when_queue_exceeds_ref_capacity(self):
        pan = PanopticonPolicy(queue_threshold=128, drain_all_on_ref=True)
        for row in (1, 2):
            pan.on_activate(row, 128)
        assert not pan.needs_alert()
        pan.on_activate(3, 128)
        assert pan.needs_alert()

    def test_on_ref_requests_alert(self):
        pan = PanopticonPolicy(queue_threshold=128, drain_all_on_ref=True)
        for row in (1, 2, 3):
            pan.on_activate(row, 128)
        pan.on_ref([])
        assert pan.alert_requested

    def test_base_design_on_ref_is_quiet(self):
        pan = PanopticonPolicy(queue_threshold=128)
        for row in (1, 2, 3):
            pan.on_activate(row, 128)
        pan.on_ref([])
        assert not pan.alert_requested


class TestSram:
    def test_sram_two_bytes_per_entry(self):
        assert PanopticonPolicy(queue_entries=8).sram_bytes() == 16
