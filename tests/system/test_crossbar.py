"""Crossbar unit tests: grant order under contention, the client
stream synthesizer, and the attack -> request-stream adapter."""

import pytest

from repro.attacks.registry import ATTACK_KINDS, AttackSpec
from repro.mc import McConfig, MemoryController, Request
from repro.mitigations.null import NullPolicy
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.system import (
    ATTACK_ROW_BASE,
    CHANNEL_SEED_STRIDE,
    CLIENT_SEED_STRIDE,
    STREAMABLE_ATTACKS,
    ClientSpec,
    attack_request_stream,
    client_requests,
)
from repro.dram.timing import DDR5_PRAC_TIMING
from repro.workloads.requests import McWorkload


def make_channel(num_banks=2, rows=4096):
    return ChannelSim(
        ChannelConfig(
            sim=SimConfig(
                num_banks=num_banks,
                rows_per_bank=rows,
                num_refresh_groups=rows,
                track_danger=False,
            ),
            num_subchannels=1,
        ),
        NullPolicy,
    )


def burst(client, rows, bank=0, t=0.0):
    """Same-instant requests from one client (forces grant decisions)."""
    return [
        Request(issue_ns=t, bank=bank, row=row, client=client)
        for row in rows
    ]


def rows_by_start(batch):
    """The served requests' rows in command-issue order."""
    rows = batch.column("row")
    order = sorted(range(len(batch)), key=batch.start_ns.__getitem__)
    return [rows[batch.ridx[i]] for i in order]


def by_row(batch, name):
    """Row -> the batch array ``name``'s entry for the request to it."""
    rows = batch.column("row")
    return {rows[r]: value for r, value in zip(batch.ridx,
                                                getattr(batch, name))}


class TestClientSpecValidation:
    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="non-empty"):
            ClientSpec(name="")

    def test_rejects_reserved_separators(self):
        with pytest.raises(ValueError, match="reserved"):
            ClientSpec(name="a:b")
        with pytest.raises(ValueError, match="reserved"):
            ClientSpec(name="a|b")

    def test_rejects_adaptive_attacks(self):
        with pytest.raises(ValueError, match="adaptive"):
            ClientSpec(name="atk", attack=AttackSpec.of("feinting"))

    def test_display_name_prefers_attack(self):
        benign = ClientSpec(name="t0")
        hammer = ClientSpec(
            name="atk", attack=AttackSpec.of("kernel-single")
        )
        assert benign.display_name() == McWorkload().display_name()
        assert "kernel" in hammer.display_name()


class TestGrantOrder:
    def test_equal_priority_round_robin(self):
        """Same-instant admission from equal clients alternates; the
        per-bank queue then serves the interleaved arrivals FCFS."""
        mc = MemoryController(
            make_channel(num_banks=1),
            McConfig(scheduler="fcfs", queue_depth=1),
        )
        done = mc.serve_streams(
            [burst(0, [1, 2, 3]), burst(1, [11, 12, 13])]
        )
        assert rows_by_start(done) == [1, 11, 2, 12, 3, 13]

    def test_priority_admits_first(self):
        """Under a full queue, the higher-priority client's whole
        burst is admitted before the low-priority one's."""
        mc = MemoryController(
            make_channel(num_banks=1),
            McConfig(scheduler="fcfs", queue_depth=1),
        )
        done = mc.serve_streams(
            [burst(0, [1, 2, 3]), burst(1, [11, 12, 13])],
            priorities=[0, 5],
        )
        assert rows_by_start(done) == [11, 12, 13, 1, 2, 3]

    def test_full_queue_stalls_only_owner(self):
        """Client 0 jams bank 0; client 1's bank-1 stream is admitted
        at arrival, not behind the jam (per-client in-order, not
        global in-order)."""
        mc = MemoryController(
            make_channel(num_banks=2), McConfig(queue_depth=1)
        )
        jam = burst(0, [1, 2, 3, 4], bank=0)
        side = burst(1, [21, 22], bank=1)
        together = mc.serve_streams([jam, side])
        # Alone, the same stream is client 0 (tags follow the stream
        # index).
        alone = MemoryController(
            make_channel(num_banks=2), McConfig(queue_depth=1)
        ).serve_streams([burst(0, [21, 22], bank=1)])
        together_done = by_row(together, "complete_ns")
        alone_done = by_row(alone, "complete_ns")
        # The side client pays only shared command-bus serialization
        # (a few ns per command), never a jammed-queue stall (a full
        # ~52 ns tRC per blocked entry would show up here).
        for row in (21, 22):
            delay = together_done[row] - alone_done[row]
            assert 0.0 <= delay < 10.0
        # The jammed client itself serializes behind the depth-1 queue.
        assert by_row(together, "enqueue_ns")[4] > 0.0

    def test_within_client_order_is_preserved(self):
        mc = MemoryController(
            make_channel(num_banks=2), McConfig(queue_depth=2)
        )
        streams = [
            [Request(issue_ns=7.0 * i, bank=i % 2, row=i, client=0)
             for i in range(40)],
            [Request(issue_ns=11.0 * i, bank=(i + 1) % 2, row=100 + i,
                     client=1) for i in range(40)],
        ]
        done = mc.serve_streams(streams)
        owner = done.clients()
        row = done.column("row")
        by_enqueue = sorted(range(len(done)),
                            key=done.enqueue_ns.__getitem__)
        for client in (0, 1):
            rows = [row[done.ridx[i]] for i in by_enqueue
                    if owner[done.ridx[i]] == client]
            assert rows == sorted(rows)

    def test_priorities_length_mismatch_rejected(self):
        mc = MemoryController(make_channel(), McConfig())
        with pytest.raises(ValueError, match="priorities"):
            mc.serve_streams([burst(0, [1])], priorities=[0, 1])


class TestAttackStream:
    def test_paced_at_t_rc(self):
        spec = AttackSpec.of("kernel-single", total_acts=100)
        stream = attack_request_stream(
            spec, horizon_ns=1e9, timing=DDR5_PRAC_TIMING,
            rows_per_bank=64 * 1024,
        )
        assert len(stream) == 100
        t_rc = DDR5_PRAC_TIMING.t_rc
        assert [r.issue_ns for r in stream[:3]] == [0.0, t_rc, 2 * t_rc]
        assert all(r.row == ATTACK_ROW_BASE for r in stream)

    def test_horizon_clips_budget(self):
        spec = AttackSpec.of("kernel-single", total_acts=10**9)
        horizon = 100 * DDR5_PRAC_TIMING.t_rc
        stream = attack_request_stream(
            spec, horizon_ns=horizon, timing=DDR5_PRAC_TIMING,
            rows_per_bank=64 * 1024,
        )
        assert stream, "attack stream must not be empty"
        assert all(r.issue_ns < horizon for r in stream)

    def test_multi_row_kernel_cycles_rows(self):
        spec = AttackSpec.of("kernel-multi", rows=3, total_acts=9)
        stream = attack_request_stream(
            spec, horizon_ns=1e9, timing=DDR5_PRAC_TIMING,
            rows_per_bank=64 * 1024,
        )
        assert [r.row - ATTACK_ROW_BASE for r in stream] == [
            0, 1, 2, 0, 1, 2, 0, 1, 2,
        ]

    def test_trespass_budget(self):
        spec = AttackSpec.of(
            "trespass", num_aggressors=4, acts_per_aggressor=8
        )
        stream = attack_request_stream(
            spec, horizon_ns=1e9, timing=DDR5_PRAC_TIMING,
            rows_per_bank=64 * 1024,
        )
        assert len(stream) == 32
        assert {r.row - ATTACK_ROW_BASE for r in stream} == {0, 1, 2, 3}

    def test_unset_params_take_the_runner_defaults(self, monkeypatch):
        """Parameters a spec leaves unset come from the kind registry,
        which reads the runner's signature: a changed runner default
        moves ``repro attack run`` and the attacker client together."""
        defaults = ATTACK_KINDS["kernel-multi"].defaults
        monkeypatch.setitem(defaults, "rows", 2)
        monkeypatch.setitem(defaults, "total_acts", 6)
        stream = attack_request_stream(
            AttackSpec.of("kernel-multi"), horizon_ns=1e9,
            timing=DDR5_PRAC_TIMING, rows_per_bank=64 * 1024,
        )
        assert [r.row - ATTACK_ROW_BASE for r in stream] == [
            0, 1, 0, 1, 0, 1,
        ]

    def test_adaptive_kind_rejected(self):
        with pytest.raises(ValueError, match="adaptive"):
            attack_request_stream(
                AttackSpec.of("feinting"), horizon_ns=1e6,
                timing=DDR5_PRAC_TIMING, rows_per_bank=64 * 1024,
            )

    def test_small_banks_rejected(self):
        with pytest.raises(ValueError, match="rows"):
            attack_request_stream(
                AttackSpec.of("kernel-single"), horizon_ns=1e6,
                timing=DDR5_PRAC_TIMING, rows_per_bank=512,
            )

    def test_streamable_kinds_all_stream(self):
        for kind in STREAMABLE_ATTACKS:
            stream = attack_request_stream(
                AttackSpec.of(kind), horizon_ns=1e6,
                timing=DDR5_PRAC_TIMING, rows_per_bank=64 * 1024,
            )
            assert stream, kind


class TestClientRequests:
    KWARGS = dict(
        subchannels=1, banks=2, n_trefi=64, rows_per_bank=4096,
        seed=7, channel=0, timing=DDR5_PRAC_TIMING,
    )

    def test_tags_every_request(self):
        stream = client_requests(ClientSpec(name="t0"), 3, **self.KWARGS)
        assert stream and all(r.client == 3 for r in stream)

    def test_seed_zero_channel_zero_is_identity(self):
        """Client seed 0 on channel 0 draws at the bare system seed —
        the anchor of the 1-client == run_mc pin."""
        from repro.workloads.requests import generate_requests

        stream = client_requests(ClientSpec(name="t0"), 0, **self.KWARGS)
        base = generate_requests(
            McWorkload(), num_subchannels=1, banks_per_subchannel=2,
            n_trefi=64, rows_per_bank=4096, seed=7,
            trefi_ns=DDR5_PRAC_TIMING.t_refi,
        )
        assert stream == base

    def test_client_and_channel_seeds_decorrelate(self):
        a = client_requests(ClientSpec(name="t0"), 0, **self.KWARGS)
        b = client_requests(
            ClientSpec(name="t1", seed=1), 1, **self.KWARGS
        )
        kwargs = dict(self.KWARGS, channel=1)
        c = client_requests(ClientSpec(name="t0"), 0, **kwargs)
        issue = lambda s: [r.issue_ns for r in s]
        assert issue(a) != issue(b)
        assert issue(a) != issue(c)
        assert CLIENT_SEED_STRIDE != CHANNEL_SEED_STRIDE
