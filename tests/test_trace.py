"""Tests for trace recording, persistence, and replay."""

import hashlib
import json

import pytest

from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.obs import NULL_RECORDER, TraceRecorder
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig, SubchannelSim
from repro.sim.perf import replay
from repro.trace import ActivationTrace

SMALL = SimConfig(rows_per_bank=1024, num_refresh_groups=128)


def small_sim(policy=NullPolicy, recorder=NULL_RECORDER) -> SubchannelSim:
    sim = SubchannelSim(SMALL, policy)
    sim.recorder = recorder
    return sim


def small_channel(policy=NullPolicy) -> ChannelSim:
    """A one-sub-channel channel: bit-identical to :func:`small_sim`."""
    return ChannelSim(ChannelConfig(sim=SMALL), policy)


class TestRecorder:
    def test_records_events_in_order(self):
        recorder = TraceRecorder(meta={"attack": "demo"})
        sim = small_sim(recorder=recorder)
        for row in (1, 2, 1):
            sim.activate(row)
        trace = ActivationTrace.from_recorder(recorder)
        assert len(trace) == 3
        assert [row for _, _, row in trace] == [1, 2, 1]
        times = [t for t, _, _ in trace]
        assert times == sorted(times)
        assert trace.metadata == {"attack": "demo"}

    def test_stop_detaches(self):
        """Attaching the null recorder stops the recording."""
        recorder = TraceRecorder()
        channel = ChannelSim(ChannelConfig(sim=SimConfig(
            rows_per_bank=1024, num_refresh_groups=128)), NullPolicy)
        channel.attach_recorder(recorder)
        channel.activate(1)
        channel.attach_recorder(NULL_RECORDER)
        channel.activate(2)
        channel.activate_many([3, 4])
        assert ActivationTrace.from_recorder(recorder).events == [
            (0.0, 0, 1)
        ]

    def test_from_recorder_keeps_one_subchannel(self):
        recorder = TraceRecorder()
        channel = ChannelSim(ChannelConfig(
            sim=SimConfig(rows_per_bank=1024, num_refresh_groups=128),
            num_subchannels=2,
        ), NullPolicy)
        channel.attach_recorder(recorder)
        channel.activate_many([5, 6], subchannel=1)
        channel.activate(7, subchannel=0)
        assert [row for _, _, row in ActivationTrace.from_recorder(
            recorder, subchannel=1)] == [5, 6]
        assert [row for _, _, row in ActivationTrace.from_recorder(
            recorder)] == [7]

    def test_iterates_events_in_order(self):
        trace = ActivationTrace(events=[(0.0, 0, 5), (52.0, 0, 5), (104.0, 0, 7)])
        assert len(trace) == 3
        assert [row for _, _, row in trace] == [5, 5, 7]

    def test_duration(self):
        trace = ActivationTrace(events=[(0.0, 0, 1), (99.0, 0, 2)])
        assert trace.duration_ns == 99.0
        assert ActivationTrace().duration_ns == 0.0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        trace = ActivationTrace(
            events=[(0.0, 0, 5), (52.0, 1, 9)], metadata={"seed": 3}
        )
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = ActivationTrace.load(path)
        assert loaded.events == trace.events
        assert loaded.metadata == {"seed": 3}

    def test_file_bytes_are_pinned(self, tmp_path):
        """Both kinds write the same container: a header line, then one
        record a line."""
        from repro.trace import AddressTrace

        activation = tmp_path / "act.jsonl"
        ActivationTrace(events=[(0.0, 0, 5)], metadata={"seed": 3}).save(
            activation
        )
        assert activation.read_text() == (
            '{"repro-trace": 1, "events": 1, "metadata": {"seed": 3}}\n'
            '{"t": 0.0, "b": 0, "r": 5}\n'
        )
        address = tmp_path / "addr.jsonl"
        AddressTrace(events=[(52.0, 1 << 18)],
                     metadata={"workload": "demo"}).save(address)
        assert address.read_text() == (
            '{"repro-trace": 2, "kind": "address", "events": 1, '
            '"metadata": {"workload": "demo"}}\n'
            '{"t": 52.0, "a": 262144}\n'
        )

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError):
            ActivationTrace.load(path)

    def test_load_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            ActivationTrace.load(path)


class TestReplay:
    def test_replay_reproduces_counters(self):
        recorder = TraceRecorder()
        sim = small_sim(recorder=recorder)
        for _ in range(10):
            sim.activate(7)
        trace = ActivationTrace.from_recorder(recorder)

        fresh = small_channel()
        replay(trace, fresh)
        assert fresh.bank.prac_count(7) == 10
        assert fresh.total_acts == 10

    def test_replay_honors_idle_gaps(self):
        recorder = TraceRecorder()
        sim = small_sim(recorder=recorder)
        sim.activate(1)
        sim.idle(50_000.0)
        sim.activate(1)
        trace = ActivationTrace.from_recorder(recorder)

        fresh = small_channel()
        replay(trace, fresh)
        assert fresh.now >= 50_000.0

    def test_replay_against_different_policy(self):
        """Record against an unprotected bank, replay against MOAT: the
        same stream now triggers ALERTs."""
        recorder = TraceRecorder()
        sim = small_sim(recorder=recorder)
        for _ in range(200):
            sim.activate(7)
        trace = ActivationTrace.from_recorder(recorder)
        assert sim.alerts == 0

        protected = small_channel(lambda: MoatPolicy(ath=64))
        replay(trace, protected)
        assert protected.alerts >= 2
        assert protected.bank.max_danger <= 99

    @pytest.mark.parametrize("track_danger", [False, True])
    def test_channel_and_batched_runs_round_trip(self, track_danger):
        """A run driven through ChannelSim.activate and activate_many
        (the batched fast path, or its per-ACT fallback under danger
        tracking) records every ACT, and replaying the trace into a
        fresh one-sub-channel channel reproduces the run's
        statistics."""
        config = SimConfig(
            num_banks=2, rows_per_bank=1024, num_refresh_groups=128,
            track_danger=track_danger,
        )
        channel = ChannelSim(
            ChannelConfig(sim=config), lambda: MoatPolicy(ath=16)
        )
        recorder = TraceRecorder()
        channel.attach_recorder(recorder)
        t_refi = channel.timing.t_refi
        for interval in range(40):
            channel.advance_to(interval * t_refi)
            rows = [7, 7, 9, 7, 300 + interval, 7] * 3
            if interval % 2:
                channel.activate_many(rows, bank=interval % 4 // 2)
            else:
                for row in rows:
                    channel.activate(row, bank=1)
        channel.flush()
        trace = ActivationTrace.from_recorder(recorder)
        recorded = channel.subchannel.stats()
        assert len(trace) == recorded["total_acts"] == 40 * 18
        assert recorded["alerts"] > 0

        fresh = ChannelSim(
            ChannelConfig(sim=config), lambda: MoatPolicy(ath=16)
        )
        replay(trace, fresh)
        assert fresh.subchannel.stats() == recorded

    def test_activation_trace_beyond_the_channel_is_rejected(self):
        """An activation trace names banks and rows directly; the
        replay range-checks them like every stream into a channel."""
        bank = ActivationTrace(events=[(0.0, 0, 1), (60.0, 1, 1)])
        with pytest.raises(ValueError, match="targets bank 1 but the "
                                             "channel has 1 banks"):
            replay(bank, small_channel())
        row = ActivationTrace(events=[(0.0, 0, 1024)])
        with pytest.raises(ValueError, match="targets row 1024 but banks "
                                             "have 1024 rows"):
            replay(row, small_channel())


class TestAddressTrace:
    def small_mapping(self):
        from repro.sim.mapping import AddressMapping

        return AddressMapping(
            bank_functions=[[13, 18]],
            subchannel_bits=[6, 12],
            row_shift=18,
            row_bits=8,
            column_mask_bits=13,
        )

    def small_channel(self):
        return ChannelSim(
            ChannelConfig(
                sim=SimConfig(
                    num_banks=2, rows_per_bank=256, num_refresh_groups=128
                ),
                num_subchannels=2,
            ),
            NullPolicy,
        )

    def test_save_load_roundtrip(self, tmp_path):
        from repro.trace import AddressTrace, load_trace

        trace = AddressTrace(
            events=[(0.0, 1 << 18), (52.0, 5 << 18)],
            metadata={"workload": "demo"},
        )
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = load_trace(path)
        assert isinstance(loaded, AddressTrace)
        assert loaded.events == trace.events
        assert loaded.metadata == {"workload": "demo"}

    def test_load_trace_dispatches_to_activation(self, tmp_path):
        from repro.trace import load_trace

        trace = ActivationTrace(events=[(0.0, 0, 7)])
        path = tmp_path / "t.jsonl"
        trace.save(path)
        loaded = load_trace(path)
        assert isinstance(loaded, ActivationTrace)
        assert loaded.events == [(0.0, 0, 7)]

    def test_kind_mismatch_errors_are_actionable(self, tmp_path):
        from repro.trace import AddressTrace

        activation = tmp_path / "act.jsonl"
        ActivationTrace(events=[(0.0, 0, 1)]).save(activation)
        with pytest.raises(ValueError, match="load_trace"):
            AddressTrace.load(activation)
        address = tmp_path / "addr.jsonl"
        AddressTrace(events=[(0.0, 0)]).save(address)
        with pytest.raises(ValueError, match="load_trace"):
            ActivationTrace.load(address)

    def test_replay_demuxes_through_mapping(self):
        from repro.trace import AddressTrace

        channel = self.small_channel()
        mapping = self.small_mapping()
        events = [
            (0.0, mapping.compose(0, 0, 10)),
            (60.0, mapping.compose(1, 1, 20)),
            (120.0, mapping.compose(1, 1, 20)),
        ]
        replay(AddressTrace(events=events), channel, mapping)
        assert channel.subchannels[0].banks[0].prac_count(10) == 1
        assert channel.subchannels[1].banks[1].prac_count(20) == 2
        assert channel.total_acts == 3

    def test_replay_honors_timing(self):
        from repro.trace import AddressTrace

        channel = self.small_channel()
        mapping = self.small_mapping()
        trace = AddressTrace(
            events=[(0.0, mapping.compose(0, 0, 1)),
                    (90_000.0, mapping.compose(0, 0, 1))]
        )
        replay(trace, channel, mapping)
        assert channel.now >= 90_000.0


class TestRunTrace:
    def test_synthesized_trace_produces_metrics(self):
        from repro.sim.mapping import CoffeeLakeMapping
        from repro.sim.perf import RunConfig, run_trace
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        mapping = CoffeeLakeMapping()
        trace = generate_address_trace(
            profile_by_name("tc"),
            mapping,
            n_trefi=64,
            banks_per_subchannel=2,
        )
        result = run_trace(trace, RunConfig(ath=64))
        assert result.workload == "tc"
        assert result.subchannels == mapping.num_subchannels
        assert result.total_acts >= len(trace)  # replay issued everything
        # Metrics normalize over the trace's logical window, not the
        # (possibly dilated) replay wall-clock.
        assert result.n_trefi == 64
        metrics = result.as_metrics()
        assert set(metrics) >= {"slowdown", "alerts_per_trefi"}

    def test_trace_replay_is_deterministic(self):
        from repro.sim.mapping import CoffeeLakeMapping
        from repro.sim.perf import RunConfig, run_trace
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        mapping = CoffeeLakeMapping()
        trace = generate_address_trace(
            profile_by_name("tc"), mapping, n_trefi=32,
            banks_per_subchannel=1,
        )
        first = run_trace(trace, RunConfig())
        second = run_trace(trace, RunConfig())
        assert first.as_metrics() == second.as_metrics()

    @pytest.mark.parametrize("workload, n_trefi, seed, banks, digest", [
        ("mcf", 48, 3, None, "791bd9ab939642ff"),
        ("roms", 64, 0, 2, "52a8d6f8ef805c68"),
        ("lbm", 32, 1, 4, "7f0a1646cccd9d96"),
    ])
    def test_replay_metrics_are_pinned(self, workload, n_trefi, seed,
                                       banks, digest):
        """Any change to how a replay decodes, paces or orders its ACTs
        moves these digests of its metrics."""
        from repro.sim.mapping import CoffeeLakeMapping
        from repro.sim.perf import RunConfig, run_trace
        from repro.workloads.generator import generate_address_trace
        from repro.workloads.profiles import profile_by_name

        trace = generate_address_trace(
            profile_by_name(workload), CoffeeLakeMapping(),
            n_trefi=n_trefi, seed=seed, banks_per_subchannel=banks,
        )
        metrics = run_trace(trace, RunConfig(ath=64)).as_metrics()
        encoded = json.dumps(metrics, sort_keys=True).encode()
        assert hashlib.sha256(encoded).hexdigest()[:16] == digest
