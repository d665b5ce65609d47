"""Tests for the workload performance front-end."""

import dataclasses
from collections import Counter

import pytest

import repro.sim.perf as perf
from repro.sim.channel import ChannelSim
from repro.sim.engine import SubchannelSim
from repro.sim.perf import (
    PerfResult,
    RunConfig,
    run_workload,
)
from repro.workloads.generator import (
    generate_channel_schedules,
    generate_schedule,
)
from repro.workloads.profiles import profile_by_name


def small_config(**kwargs) -> RunConfig:
    defaults = dict(n_trefi=512, model_cross_bank_service=False)
    defaults.update(kwargs)
    return RunConfig(**defaults)


class TestRunWorkload:
    def test_cold_workload_no_alerts(self):
        result = run_workload(profile_by_name("tc"), small_config())
        assert result.alerts == 0
        assert result.slowdown == 0.0
        assert result.normalized_performance == 1.0

    def test_hot_workload_alerts_at_ath64(self):
        result = run_workload(profile_by_name("roms"), small_config(ath=64))
        assert result.alerts > 0
        assert result.slowdown > 0.0

    def test_ath128_quieter_than_ath64(self):
        hot = profile_by_name("roms")
        r64 = run_workload(hot, small_config(ath=64))
        r128 = run_workload(hot, small_config(ath=128))
        assert r128.alerts <= r64.alerts

    def test_cross_bank_service_reduces_alerts(self):
        hot = profile_by_name("roms")
        alone = run_workload(hot, small_config())
        helped = run_workload(
            hot, RunConfig(n_trefi=512, model_cross_bank_service=True)
        )
        assert helped.alerts <= alone.alerts

    def test_eth_default_is_half_ath(self):
        result = run_workload(profile_by_name("tc"), small_config(ath=64))
        assert result.eth == 32


class TestMetrics:
    def make(self, alerts=8, n_trefi=512, banks=1) -> PerfResult:
        return PerfResult(
            workload="x",
            ath=64,
            eth=32,
            abo_level=1,
            alerts=alerts,
            n_trefi=n_trefi,
            banks_simulated=banks,
            banks_per_subchannel=32,
            total_acts=1000,
            mitigation_acts=23,
            proactive_mitigations=10,
            reactive_mitigations=alerts,
            elapsed_ns=n_trefi * 3900.0,
            stall_ns=alerts * 350.0,
        )

    def test_alerts_per_trefi_scaling(self):
        result = self.make(alerts=8, n_trefi=512)
        assert result.alerts_per_trefi == pytest.approx(8 * 32 / 512)

    def test_slowdown_is_scaled_stall_fraction(self):
        result = self.make(alerts=8, n_trefi=512)
        expected = 8 * 350.0 * 32 / (512 * 3900.0)
        assert result.slowdown == pytest.approx(expected)

    def test_mitigations_per_trefw(self):
        result = self.make(alerts=8, n_trefi=512)
        # (10 proactive + 8 alerts) scaled from 1/16 window to full.
        assert result.mitigations_per_trefw_per_bank == pytest.approx(18 * 16)

    def test_activation_overhead(self):
        assert self.make().activation_overhead == pytest.approx(0.023)


class TestPolicyGenericRuns:
    """The front-end accepts any registered mitigation policy."""

    def test_panopticon_run(self):
        from repro.mitigations.registry import PolicySpec

        config = small_config(policy=PolicySpec("panopticon"))
        result = run_workload(profile_by_name("roms"), config)
        assert result.policy == "panopticon"
        # Panopticon's native proactive cadence (4) is applied.
        assert config.trefi_per_mitigation_resolved == 4
        assert result.total_acts > 0
        assert 0.0 <= result.slowdown <= 1.0

    def test_para_run_is_deterministic(self):
        from repro.mitigations.registry import PolicySpec

        config = small_config(policy=PolicySpec.of("para", probability=0.01))
        first = run_workload(profile_by_name("roms"), config)
        second = run_workload(profile_by_name("roms"), config)
        assert first.as_metrics() == second.as_metrics()
        assert first.proactive_mitigations > 0  # PARA did sample rows

    def test_para_seed_changes_mitigation_stream(self):
        from repro.mitigations.registry import PolicySpec

        spec = PolicySpec.of("para", probability=0.01)
        a = run_workload(profile_by_name("roms"), small_config(policy=spec, seed=0))
        b = run_workload(profile_by_name("roms"), small_config(policy=spec, seed=1))
        # Different seed: different schedule AND different PARA stream.
        assert a.as_metrics() != b.as_metrics()

    def test_default_policy_is_moat(self):
        config = small_config()
        assert config.policy.kind == "moat"
        assert config.trefi_per_mitigation_resolved == 5

    def test_null_policy_is_free(self):
        from repro.mitigations.registry import PolicySpec

        result = run_workload(
            profile_by_name("roms"), small_config(policy=PolicySpec("null"))
        )
        assert result.alerts == 0
        assert result.proactive_mitigations == 0
        assert result.slowdown == 0.0

    def test_as_metrics_matches_properties(self):
        result = run_workload(profile_by_name("roms"), small_config())
        metrics = result.as_metrics()
        assert metrics["slowdown"] == result.slowdown
        assert metrics["alerts_per_trefi"] == result.alerts_per_trefi
        assert metrics["alerts"] == float(result.alerts)


class TestChannelFrontEnd:
    """The perf front-end routes through ChannelSim."""

    def test_subchannel_axis_scales_counters(self):
        from repro.sim.perf import RunConfig, run_workload
        from repro.workloads.profiles import profile_by_name

        profile = profile_by_name("tc")
        narrow = run_workload(
            profile, RunConfig(n_trefi=256, model_cross_bank_service=False)
        )
        wide = run_workload(
            profile,
            RunConfig(
                n_trefi=256, subchannels=2, model_cross_bank_service=False
            ),
        )
        assert wide.subchannels == 2
        # Two independent draws of the same profile: roughly twice the
        # traffic in total, same order of magnitude per sub-channel.
        assert wide.total_acts > narrow.total_acts
        assert narrow.subchannels == 1

    def test_single_subchannel_metrics_unchanged_by_channel_layer(self):
        """RunConfig(subchannels=1) must reproduce the pre-channel
        engine bit-for-bit (the committed smoke baselines pin the same
        property at sweep scale)."""
        from repro.mitigations.registry import PolicySpec, RunParams
        from repro.sim.engine import SimConfig, SubchannelSim
        from repro.sim.perf import RunConfig, run_workload
        from repro.workloads.generator import generate_schedule
        from repro.workloads.profiles import profile_by_name

        profile = profile_by_name("roms")
        config = RunConfig(n_trefi=256, model_cross_bank_service=False)
        result = run_workload(profile, config)

        # Reference: the seed engine's per-ACT driver loop.
        sim = SubchannelSim(
            SimConfig(
                trefi_per_mitigation=config.trefi_per_mitigation_resolved,
                track_danger=False,
            ),
            PolicySpec("moat").make_factory(
                RunParams(ath=config.ath, eth=config.eth_resolved)
            ),
        )
        sched = generate_schedule(profile, n_trefi=256, seed=0)
        trefi = config.timing.t_refi
        for interval in range(sched.n_trefi):
            target = interval * trefi
            if sim.now < target:
                sim.advance_to(target)
            for row in sched.per_trefi[interval]:
                sim.activate(row)
        sim.flush()

        assert result.alerts == sim.alerts
        assert result.total_acts == sim.total_acts
        assert result.proactive_mitigations == sim.proactive_count
        assert result.reactive_mitigations == sim.reactive_count

    def test_run_config_rejects_nothing_but_carries_subchannels(self):
        from repro.sim.perf import RunConfig

        config = RunConfig(subchannels=2)
        assert config.subchannels == 2
        assert RunConfig().subchannels == 1


def clear_schedule_memos() -> None:
    perf._packed_schedules.cache_clear()
    perf._channel_schedules.cache_clear()


class TestScheduleReuse:
    """``run_workload`` generates the schedules of a (profile,
    sub-channels, banks, n_trefi, seed) key once per process and keeps
    every key it generated, packed, for later runs with the same key.
    Each test starts and ends with both memos empty."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """Every schedule set ``run_workload`` generates, in order."""
        generated = []

        def counting(*args, **kwargs):
            generated.append(generate_channel_schedules(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(perf, "generate_channel_schedules", counting)
        clear_schedule_memos()
        yield generated
        clear_schedule_memos()

    def test_same_key_generates_once(self, generated):
        config = small_config(n_trefi=64, seed=4201)
        first = run_workload(profile_by_name("roms"), config)
        assert run_workload(profile_by_name("roms"), config) == first
        assert len(generated) == 1

    @pytest.mark.parametrize("change", [
        {"seed": 4203}, {"n_trefi": 32}, {"workload": "mcf"},
        {"subchannels": 2}, {"banks_simulated": 2},
    ], ids=["seed", "n_trefi", "profile", "subchannels", "banks"])
    def test_changed_key_regenerates(self, generated, change):
        change = dict(change)
        workload = change.pop("workload", "roms")
        base = small_config(n_trefi=64, seed=4202)
        first = run_workload(profile_by_name("roms"), base)
        run_workload(profile_by_name(workload),
                     small_config(**{"n_trefi": 64, "seed": 4202, **change}))
        assert len(generated) == 2
        # A key seen before does not regenerate, and replays exactly.
        assert run_workload(profile_by_name("roms"), base) == first
        assert len(generated) == 2

    def test_run_leaves_its_schedule_unchanged(self, generated):
        roms = profile_by_name("roms")
        config = RunConfig(n_trefi=512, seed=4204, ath=32)
        unaided = run_workload(
            roms, dataclasses.replace(config, model_cross_bank_service=False))
        # The unaided run alerts, so the cross-bank solver below runs
        # seven times over the same schedule.
        assert unaided.alerts > 0
        solved = run_workload(roms, config)
        (used,) = perf._channel_schedules(roms, 1, 1, 512, 4204)
        (fresh,) = generate_channel_schedules(roms, n_trefi=512, seed=4204)
        assert ([(s.per_trefi, s.planned_row_acts) for s in used]
                == [(s.per_trefi, s.planned_row_acts) for s in fresh])
        assert run_workload(roms, config) == solved
        assert len(generated) == 1

    @pytest.mark.parametrize("workload", ["cc", "roms"])
    @pytest.mark.parametrize("subchannels,banks", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_packed_schedules_unpack_exactly(self, generated, workload,
                                             subchannels, banks):
        profile = profile_by_name(workload)
        memo = perf._channel_schedules(profile, subchannels, banks, 128, 7)
        fresh = generate_channel_schedules(
            profile, num_subchannels=subchannels,
            banks_per_subchannel=banks, n_trefi=128, seed=7)
        assert len(memo) == subchannels
        for got_banks, want_banks in zip(memo, fresh):
            assert len(got_banks) == banks
            for got, want in zip(got_banks, want_banks):
                assert got.n_trefi == want.n_trefi
                assert got.per_trefi == want.per_trefi
                assert got.planned_row_acts == want.planned_row_acts
        # Unpacked again after another key evicts the unpacked lists.
        perf._channel_schedules(profile_by_name("tc"), 1, 1, 16, 7)
        again = perf._channel_schedules(profile, subchannels, banks, 128, 7)
        assert again is not memo
        assert ([[s.per_trefi for s in b] for b in again]
                == [[s.per_trefi for s in b] for b in fresh])
        assert len(generated) == 2

    def test_cyclic_pass_generates_each_workload_once(self, generated):
        from repro.workloads.profiles import TABLE4_PROFILES

        config = small_config(n_trefi=8, seed=4205)
        passes = [
            [run_workload(profile, config) for profile in TABLE4_PROFILES]
            for _ in range(2)
        ]
        assert passes[0] == passes[1]
        assert len(generated) == len(TABLE4_PROFILES) == 21
        assert perf.SCHEDULE_MEMO_ENTRIES >= len(TABLE4_PROFILES)


class TestRunEngineCalls:
    """``run_workload`` hands each one-sub-channel run to the engine in
    one ``activate_intervals`` call; with several sub-channels the
    channel still issues one batch per (interval, sub-channel, bank)."""

    @staticmethod
    def calls(monkeypatch, workload, config) -> Counter:
        calls = Counter()
        targets = [
            (ChannelSim, "advance_to"), (ChannelSim, "activate_many"),
            (SubchannelSim, "activate_intervals"),
        ]
        for owner, name in targets:
            def counted(*args, _inner=getattr(owner, name),
                        _key=f"{owner.__name__}.{name}", **kwargs):
                calls[_key] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        run_once = perf._run_once

        def counted_run(*args, **kwargs):
            calls["runs"] += 1
            return run_once(*args, **kwargs)
        monkeypatch.setattr(perf, "_run_once", counted_run)
        run_workload(profile_by_name(workload), config)
        return calls

    def test_one_engine_call_per_run(self, monkeypatch):
        calls = self.calls(monkeypatch, "roms", RunConfig(ath=32, n_trefi=64))
        # The unaided run alerts, so the equilibrium solver runs too.
        assert calls["runs"] == 7
        assert calls["SubchannelSim.activate_intervals"] == 7
        assert calls["ChannelSim.advance_to"] == 0
        assert calls["ChannelSim.activate_many"] == 0

    def test_two_subchannels_batch_per_interval(self, monkeypatch):
        config = small_config(n_trefi=64, subchannels=2, banks_simulated=3)
        calls = self.calls(monkeypatch, "x264", config)
        assert calls["runs"] == 1
        assert calls["ChannelSim.activate_many"] == 64 * 2 * 3
        assert 0 < calls["ChannelSim.advance_to"] <= 64
        assert calls["SubchannelSim.activate_intervals"] == 0
