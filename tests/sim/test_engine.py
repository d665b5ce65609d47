"""Tests for the sub-channel simulation engine."""

import pytest

from repro.dram.refresh import CounterResetPolicy
from repro.dram.timing import DDR5_PRAC_TIMING
from repro.mitigations.base import MitigationPolicy
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.mitigations.panopticon import PanopticonPolicy
from repro.sim.engine import SimConfig, SubchannelSim


def null_sim(**kwargs) -> SubchannelSim:
    defaults = dict(rows_per_bank=64, num_refresh_groups=8)
    defaults.update(kwargs)
    return SubchannelSim(SimConfig(**defaults), NullPolicy)


def moat_sim(ath=64, **kwargs) -> SubchannelSim:
    defaults = dict(rows_per_bank=64 * 1024, num_refresh_groups=8192)
    defaults.update(kwargs)
    return SubchannelSim(SimConfig(**defaults), lambda: MoatPolicy(ath=ath))


class TestActPacing:
    def test_same_bank_acts_spaced_by_trc(self):
        sim = null_sim()
        first = sim.activate(1)
        second = sim.activate(2)
        assert second.time - first.time == DDR5_PRAC_TIMING.t_rc

    def test_different_banks_overlap(self):
        sim = null_sim(num_banks=2)
        first = sim.activate(1, bank=0)
        second = sim.activate(1, bank=1)
        gap = second.time - first.time
        assert 0 < gap < DDR5_PRAC_TIMING.t_rc

    def test_act_count_returned(self):
        sim = null_sim()
        assert sim.activate(3).count == 1
        assert sim.activate(3).count == 2

    def test_total_acts(self):
        sim = null_sim()
        for _ in range(10):
            sim.activate(1)
        assert sim.total_acts == 10


class TestRefScheduling:
    def test_ref_executes_each_trefi(self):
        sim = null_sim()
        sim.advance_to(10 * DDR5_PRAC_TIMING.t_refi + 1)
        assert sim.refs == 10

    def test_acts_blocked_during_ref(self):
        sim = null_sim()
        trefi, trfc = DDR5_PRAC_TIMING.t_refi, DDR5_PRAC_TIMING.t_rfc
        sim.advance_to(trefi - 62)
        before = sim.activate(1)  # completes just before the REF
        assert before.time == trefi - 62
        blocked = sim.activate(2)  # would overlap [tREFI, tREFI + tRFC)
        assert blocked.time >= trefi + trfc

    def test_67_acts_fit_per_steady_state_trefi(self):
        sim = null_sim()
        trefi = DDR5_PRAC_TIMING.t_refi
        times = []
        while not times or times[-1] < 3 * trefi:
            times.append(sim.activate(1).time)
        # Steady-state interval [tREFI, 2 tREFI): tRFC eats 410 ns, so
        # 67 activations fit (Section 2.2).
        in_window = [t for t in times if trefi <= t < 2 * trefi]
        assert len(in_window) == DDR5_PRAC_TIMING.acts_per_trefi

    def test_refresh_wave_resets_counters(self):
        sim = null_sim(reset_policy=CounterResetPolicy.UNSAFE)
        sim.activate(0)
        assert sim.bank.prac_count(0) == 1
        sim.advance_to(DDR5_PRAC_TIMING.t_refi + DDR5_PRAC_TIMING.t_rfc + 1)
        assert sim.bank.prac_count(0) == 0

    def test_on_ref_override_hears_every_ref(self, monkeypatch):
        """Panopticon overrides ``on_ref`` but wants no rows: each bank's
        policy still gets one call per REF."""
        calls = []
        monkeypatch.setattr(PanopticonPolicy, "on_ref",
                            lambda self, rows: calls.append((self, rows)))
        sim = SubchannelSim(
            SimConfig(num_banks=2, rows_per_bank=64, num_refresh_groups=8),
            PanopticonPolicy,
        )
        sim.advance_to(10 * DDR5_PRAC_TIMING.t_refi + 1)
        assert sim.refs == 10
        assert [policy for policy, _ in calls] == sim.policies * 10
        assert all(rows == [] for _, rows in calls)

    def test_base_on_ref_is_not_called(self, monkeypatch):
        calls = []
        monkeypatch.setattr(MitigationPolicy, "on_ref",
                            lambda self, rows: calls.append(rows))
        sim = null_sim()
        sim.advance_to(10 * DDR5_PRAC_TIMING.t_refi + 1)
        assert sim.refs == 10
        assert calls == []

    def test_drain_all_panopticon_alerts_after_ref(self):
        sim = SubchannelSim(
            SimConfig(rows_per_bank=64, num_refresh_groups=8),
            lambda: PanopticonPolicy(drain_all_on_ref=True),
        )
        sim.policy.queue.extend([1, 2, 3])
        sim.advance_to(DDR5_PRAC_TIMING.t_refi + 1)
        assert sim.refs == 1
        assert sim.alerts == 1


class TestProactiveMitigation:
    def test_mitigation_period_rate(self):
        sim = moat_sim(trefi_per_mitigation=5)
        events = []
        sim.mitigation_listeners.append(lambda b, r, re, t: events.append((r, re)))
        # Track a row above ETH, then let two boundaries pass.
        for _ in range(40):
            sim.activate(7)
        sim.advance_to(11 * DDR5_PRAC_TIMING.t_refi)
        proactive = [r for r, reactive in events if not reactive]
        assert proactive == [7]

    def test_rate_zero_disables_proactive(self):
        sim = moat_sim(trefi_per_mitigation=0)
        for _ in range(40):
            sim.activate(7)
        sim.advance_to(50 * DDR5_PRAC_TIMING.t_refi)
        assert sim.proactive_count == 0

    def test_mitigation_resets_counter_by_default(self):
        # Row 7000 is far from the refresh wave for this short run, so
        # the reset can only come from the mitigation itself.
        sim = moat_sim()
        for _ in range(40):
            sim.activate(7000)
        sim.advance_to(11 * DDR5_PRAC_TIMING.t_refi)
        assert sim.proactive_count == 1
        assert sim.bank.prac_count(7000) == 0

    def test_mitigation_can_preserve_counter(self):
        sim = moat_sim(reset_counter_on_mitigation=False)
        for _ in range(40):
            sim.activate(7000)
        sim.advance_to(11 * DDR5_PRAC_TIMING.t_refi)
        assert sim.proactive_count == 1
        assert sim.bank.prac_count(7000) == 40


class TestAlertBehaviour:
    def test_crossing_ath_triggers_alert(self):
        sim = moat_sim(ath=64)
        for _ in range(66):
            sim.activate(9)
        sim.flush()
        assert sim.alerts == 1
        assert sim.reactive_count == 1
        assert sim.bank.prac_count(9) == 0

    def test_three_acts_fit_in_alert_window(self):
        sim = moat_sim(ath=64)
        times = [sim.activate(9).time for _ in range(70)]
        # Activation 65 (index 64) triggers; 66-68 run in the window;
        # 69 stalls until the RFM finishes.
        gap_in_window = times[66] - times[65]
        gap_after_stall = times[68] - times[67]
        assert gap_in_window == DDR5_PRAC_TIMING.t_rc
        assert gap_after_stall > DDR5_PRAC_TIMING.t_rfm

    def test_max_danger_bounded_by_window_acts(self):
        sim = moat_sim(ath=64)
        for _ in range(1000):
            sim.activate(9)
        sim.flush()
        # ATH + 1 trigger + 3 window ACTs = 68 (Section 4.4 + Figure 8).
        assert sim.bank.max_danger <= 68

    def test_no_spurious_alerts(self):
        sim = moat_sim(ath=64)
        for _ in range(1000):
            sim.activate(9)
        sim.flush()
        # Every episode must mitigate something.
        assert sim.reactive_count >= sim.alerts - 1

    def test_alert_stall_is_visible_in_timing(self):
        sim = moat_sim(ath=64)
        with_alert = []
        for _ in range(140):
            with_alert.append(sim.activate(9).time)
        gaps = [b - a for a, b in zip(with_alert, with_alert[1:])]
        assert max(gaps) >= DDR5_PRAC_TIMING.t_rfm


class TestIdleKeepsStalls:
    """Idling past a REF or an ALERT's RFM stall must not let the next
    ACT start inside it. Today ``_drain_events`` drops the end times
    that ``_do_ref`` and ``_finish_episode`` return, and ``advance_to``
    only sets ``now = max(now, time)``. Mending it moves every
    open-loop baseline (each interval starts with an ``advance_to``),
    so these pin the fault until that result-changing fix lands."""

    @pytest.mark.xfail(strict=True,
                       reason="advance_to drops the end of the REF it runs")
    def test_act_after_idle_waits_out_trfc(self):
        sim = null_sim()
        trefi, trfc = DDR5_PRAC_TIMING.t_refi, DDR5_PRAC_TIMING.t_rfc
        # Without the idle, the same ACT waits: not_before=tREFI gives
        # tREFI + tRFC.
        sim.advance_to(trefi)
        assert sim.activate(1).time >= trefi + trfc

    @pytest.mark.xfail(strict=True,
                       reason="advance_to drops the end of the RFM stall")
    def test_act_after_idle_waits_out_rfm_stall(self):
        sim = moat_sim(ath=8)
        while sim.alerts == 0:
            sim.activate(5)
        stall_end = sim.abo.stall_end
        sim.advance_to(sim.abo.window_end + 1)
        assert sim.activate(6).time >= stall_end


class TestPostponement:
    def test_postponed_refs_batch(self):
        sim = null_sim()
        sim.postpone_refs = True
        trefi = DDR5_PRAC_TIMING.t_refi
        sim.advance_to(3 * trefi + 3 * DDR5_PRAC_TIMING.t_rfc + 1)
        # Two REFs postponed, then a mandatory batch of three.
        assert sim.refs == 3

    def test_catch_up_runs_postponed_refs_first(self):
        # The mandatory REF that cannot be postponed runs as one batch
        # with the two postponed before it, and an ACT waits for all
        # three.
        sim = null_sim(trefi_per_mitigation=0)
        sim.postpone_refs = True
        trefi = DDR5_PRAC_TIMING.t_refi
        engine = sim.refresh[0]
        sim.advance_to(2 * trefi)
        assert sim.refs == 0
        assert engine.postponed == 2
        result = sim.activate(1, not_before=3 * trefi - 1.0)
        assert result.time == 3 * trefi + 3 * DDR5_PRAC_TIMING.t_rfc
        assert result.time == 12_930.0
        assert sim.refs == 3
        assert engine.pointer == 3
        assert engine.postponed == 0

    def test_batch_opens_act_window(self):
        """Appendix B: ~201 ACTs fit between postponed-REF batches."""
        sim = null_sim()
        sim.postpone_refs = True
        trefi, trfc = DDR5_PRAC_TIMING.t_refi, DDR5_PRAC_TIMING.t_rfc
        batch_end = 3 * trefi + 3 * trfc
        sim.advance_to(batch_end + 1)
        count = 0
        while True:
            result = sim.activate(1)
            if result.time >= batch_end + 3 * trefi:
                break
            count += 1
        # Appendix B: "up-to 201 activations between REFs" (the exact
        # count depends on boundary alignment by one slot).
        assert count in (201, 202)


class TestExternalServices:
    def test_external_stream_services_tracked_rows(self):
        sim = moat_sim(external_service_interval_ns=1000.0)
        for _ in range(40):  # above ETH, below ATH
            sim.activate(7)
        sim.advance_to(20_000.0)
        assert sim.external_services >= 1
        assert sim.bank.prac_count(7) == 0


class TestStats:
    def test_stats_keys(self):
        sim = null_sim()
        sim.activate(1)
        stats = sim.stats()
        assert set(stats) >= {
            "time_ns",
            "total_acts",
            "refs",
            "alerts",
            "proactive_mitigations",
            "reactive_mitigations",
            "max_danger",
        }

    def test_idle_rejects_negative(self):
        sim = null_sim()
        with pytest.raises(ValueError):
            sim.idle(-1.0)

    def test_advance_to_moves_the_clock(self):
        sim = null_sim()
        sim.advance_to(2.5 * DDR5_PRAC_TIMING.t_refi)
        assert sim.now == 2.5 * DDR5_PRAC_TIMING.t_refi
        assert sim.stats()["refs"] == 2


class TestExternalServiceCounting:
    def test_counts_events_not_mitigated_rows(self):
        """One injected RFM event is one external service, even when
        multiple banks each take their mitigation opportunity."""
        from repro.mitigations.moat import MoatPolicy

        config = SimConfig(
            num_banks=2,
            trefi_per_mitigation=0,
            track_danger=False,
            external_service_interval_ns=10_000.0,
        )
        sim = SubchannelSim(config, lambda: MoatPolicy(ath=64, eth=4))
        # Push one row above ETH on each bank so both banks have a
        # reactive candidate when the external service arrives.
        for _ in range(10):
            sim.activate(7, bank=0)
            sim.activate(9, bank=1)
        assert sim.external_services == 0
        sim.advance_to(10_001.0)
        assert sim.external_services == 1
        # Both banks were serviced by that single event.
        assert sim.reactive_count == 0  # external services aren't ALERT RFMs
        assert sim.bank.prac_count(7) == 0
        assert sim.banks[1].prac_count(9) == 0

    def test_event_counted_even_with_nothing_to_mitigate(self):
        config = SimConfig(
            num_banks=1,
            track_danger=False,
            external_service_interval_ns=5_000.0,
        )
        sim = SubchannelSim(config, lambda: MoatPolicy(ath=64))
        sim.advance_to(20_000.0)
        assert sim.external_services == 4
