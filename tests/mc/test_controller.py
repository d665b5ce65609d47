"""Unit tests of the memory-controller layer (queues, schedulers,
row-buffer policies, back-pressure)."""

import pytest

from repro.mc import McConfig, MemoryController, Request
from repro.mitigations.null import NullPolicy
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig


def make_channel(num_banks=2, num_subchannels=1, rows=1024):
    return ChannelSim(
        ChannelConfig(
            sim=SimConfig(
                num_banks=num_banks,
                rows_per_bank=rows,
                num_refresh_groups=rows,
                track_danger=False,
            ),
            num_subchannels=num_subchannels,
        ),
        NullPolicy,
    )


def served(batch, name):
    """Column ``name`` of the served requests, in service order."""
    column = batch.column(name)
    return [column[r] for r in batch.ridx]


def latencies(batch):
    """End-to-end latency of each served request, in service order."""
    return [complete - issue for complete, issue
            in zip(batch.complete_ns, served(batch, "issue_ns"))]


class TestConfigValidation:
    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError, match="scheduler"):
            McConfig(scheduler="elevator")

    def test_rejects_unknown_row_policy(self):
        with pytest.raises(ValueError, match="row policy"):
            McConfig(row_policy="ajar")

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError, match="queue_depth"):
            McConfig(queue_depth=0)

    def test_request_out_of_geometry(self):
        mc = MemoryController(make_channel(num_banks=2))
        with pytest.raises(ValueError, match="bank 5"):
            mc.serve_streams([[Request(issue_ns=0.0, bank=5, row=1)]])
        with pytest.raises(ValueError, match="row"):
            mc.serve_streams([[Request(issue_ns=0.0, bank=0, row=4096)]])
        with pytest.raises(ValueError, match="sub-channel"):
            mc.serve_streams(
                [[Request(issue_ns=0.0, subchannel=1, row=1)]]
            )


class TestFcfsOrdering:
    def test_issues_in_arrival_order(self):
        """FCFS never reorders, even when a later bank is free earlier."""
        mc = MemoryController(
            make_channel(num_banks=2),
            McConfig(scheduler="fcfs", queue_depth=None),
        )
        # Two back-to-back requests to bank 0 (second waits out tRC),
        # then one to idle bank 1: FCFS still serves bank 1 last.
        reqs = [
            Request(issue_ns=0.0, bank=0, row=1),
            Request(issue_ns=0.0, bank=0, row=2),
            Request(issue_ns=0.0, bank=1, row=3),
        ]
        done = mc.serve_streams([reqs])
        assert served(done, "row") == [1, 2, 3]
        assert done.start_ns[2] > done.start_ns[1]

    def test_latency_includes_queueing(self):
        mc = MemoryController(
            make_channel(), McConfig(scheduler="fcfs", queue_depth=None)
        )
        t_rc = 52.0
        done = mc.serve_streams([[
            Request(issue_ns=0.0, bank=0, row=1),
            Request(issue_ns=0.0, bank=0, row=2),
        ]])
        assert latencies(done)[0] == pytest.approx(t_rc)
        # The second request waits a full tRC behind the first.
        assert done.start_ns[1] - done.enqueue_ns[1] == pytest.approx(t_rc)
        assert latencies(done)[1] == pytest.approx(2 * t_rc)


class TestFrFcfs:
    def test_exploits_bank_parallelism(self):
        """FR-FCFS issues to the idle bank while bank 0 recovers."""
        mc = MemoryController(
            make_channel(num_banks=2),
            McConfig(scheduler="frfcfs", queue_depth=None),
        )
        reqs = [
            Request(issue_ns=0.0, bank=0, row=1),
            Request(issue_ns=0.0, bank=0, row=2),
            Request(issue_ns=0.0, bank=1, row=3),
        ]
        done = mc.serve_streams([reqs])
        assert served(done, "row") == [1, 3, 2]

    def test_open_page_prefers_row_hits(self):
        """A queued hit to the open row jumps ahead of an older miss."""
        mc = MemoryController(
            make_channel(num_banks=1),
            McConfig(scheduler="frfcfs", row_policy="open", queue_depth=None),
        )
        reqs = [
            Request(issue_ns=0.0, bank=0, row=7),   # opens row 7
            Request(issue_ns=0.0, bank=0, row=9),   # older miss
            Request(issue_ns=0.0, bank=0, row=7),   # younger hit
        ]
        done = mc.serve_streams([reqs])
        assert served(done, "row") == [7, 7, 9]
        assert done.row_hit == [False, True, False]

    def test_closed_page_never_hits(self):
        mc = MemoryController(
            make_channel(num_banks=1),
            McConfig(scheduler="frfcfs", row_policy="closed",
                     queue_depth=None),
        )
        done = mc.serve_streams([[Request(issue_ns=0.0, row=7),
                                  Request(issue_ns=60.0, row=7)]])
        assert not any(done.row_hit)

    def test_row_hits_skip_activation(self):
        channel = make_channel(num_banks=1)
        mc = MemoryController(
            channel,
            McConfig(scheduler="frfcfs", row_policy="open",
                     queue_depth=None),
        )
        mc.serve_streams([[Request(issue_ns=0.0, row=7),
                           Request(issue_ns=60.0, row=7),
                           Request(issue_ns=120.0, row=7)]])
        # One ACT opened the row; the two hits were column accesses.
        assert channel.total_acts == 1

    def test_ref_boundary_closes_open_row(self):
        """REF refreshes (and precharges) every bank, so a row opened
        before a tREFI boundary must not score a hit after it."""
        channel = make_channel(num_banks=1)
        mc = MemoryController(
            channel,
            McConfig(scheduler="frfcfs", row_policy="open",
                     queue_depth=None),
        )
        done = mc.serve_streams([[Request(issue_ns=0.0, row=7),
                                  Request(issue_ns=4500.0, row=7)]])
        # The second access straddles the 3900 ns REF: row re-opened.
        assert done.row_hit == [False, False]
        assert channel.total_acts == 2

    def test_hit_survives_within_one_interval(self):
        channel = make_channel(num_banks=1)
        mc = MemoryController(
            channel,
            McConfig(scheduler="frfcfs", row_policy="open",
                     queue_depth=None),
        )
        done = mc.serve_streams([[Request(issue_ns=0.0, row=7),
                                  Request(issue_ns=3000.0, row=7)]])
        assert done.row_hit == [False, True]

    def test_hits_are_faster_than_misses(self):
        channel = make_channel(num_banks=1)
        mc = MemoryController(
            channel,
            McConfig(scheduler="frfcfs", row_policy="open",
                     queue_depth=None),
        )
        done = mc.serve_streams([[Request(issue_ns=0.0, row=7),
                                  Request(issue_ns=200.0, row=7)]])
        assert done.row_hit[1]
        assert latencies(done)[1] < latencies(done)[0]


class TestQueueDepth:
    def test_full_queue_blocks_admission(self):
        """Depth-1 queues serialize admission: enqueue times lag
        arrival by the predecessor's service."""
        mc = MemoryController(
            make_channel(num_banks=1), McConfig(queue_depth=1)
        )
        reqs = [Request(issue_ns=0.0, bank=0, row=r) for r in (1, 2, 3)]
        done = mc.serve_streams([reqs])
        assert done.enqueue_ns[1] >= done.start_ns[0]
        assert done.enqueue_ns[2] >= done.start_ns[1]

    def test_blocked_bank_stalls_other_banks(self):
        """In-order front-end: a full bank-0 queue delays a younger
        bank-1 request behind it."""
        deep = MemoryController(
            make_channel(num_banks=2), McConfig(queue_depth=None)
        )
        shallow = MemoryController(
            make_channel(num_banks=2), McConfig(queue_depth=1)
        )
        reqs = [Request(issue_ns=0.0, bank=0, row=r) for r in (1, 2, 3)]
        reqs.append(Request(issue_ns=0.0, bank=1, row=9))
        free = deep.serve_streams([reqs])
        blocked = shallow.serve_streams([list(reqs)])
        free_enqueue = dict(zip(served(free, "row"), free.enqueue_ns))
        blocked_enqueue = dict(zip(served(blocked, "row"),
                                   blocked.enqueue_ns))
        assert blocked_enqueue[9] > free_enqueue[9]

    def test_infinite_depth_admits_at_arrival(self):
        mc = MemoryController(
            make_channel(num_banks=1), McConfig(queue_depth=None)
        )
        reqs = [Request(issue_ns=0.0, bank=0, row=r) for r in range(20)]
        done = mc.serve_streams([reqs])
        assert done.enqueue_ns == served(done, "issue_ns")


class TestProbeIssue:
    def test_would_defer_reports_event_crossing(self):
        """would_defer flags a command that would cross a REF without
        executing any event or claiming the issue slot."""
        channel = make_channel(num_banks=1)
        assert not channel.would_defer(12.0, bank=0)
        channel.advance_to(3895.0)  # 5 ns before the first REF
        assert channel.would_defer(12.0, bank=0)
        # Pure peek: the REF was not executed, so a longer command
        # issued now still defers across it exactly as it must.
        assert channel.activate(1, bank=0).time >= 3900.0 + 410.0

    def test_open_page_run_partitions_requests(self):
        """Every request is served exactly once: as a hit (column
        access) or as an activation — probe demotions flip a hit to
        an ACT, never drop or double-serve it."""
        channel = make_channel(num_banks=2)
        mc = MemoryController(
            channel,
            McConfig(scheduler="frfcfs", row_policy="open"),
        )
        reqs = [
            Request(issue_ns=i * 37.0, bank=i % 2, row=(i // 3) % 4)
            for i in range(300)
        ]
        done = mc.serve_streams([reqs])
        hits = sum(done.row_hit)
        assert len(done) == 300
        assert hits + channel.total_acts == 300
        assert hits > 0


class TestServeStreams:
    def test_streams_need_at_least_one(self):
        mc = MemoryController(make_channel(), McConfig())
        with pytest.raises(ValueError, match="at least one"):
            mc.serve_streams([])


class TestTiming:
    def test_idle_gap_reproduces(self):
        """Arrival timestamps floor the issue times (idle gaps pass)."""
        mc = MemoryController(make_channel(), McConfig())
        done = mc.serve_streams([[Request(issue_ns=0.0, row=1),
                                  Request(issue_ns=5000.0, row=2)]])
        assert done.start_ns[1] >= 5000.0

    def test_ref_defers_requests(self):
        """A request arriving just before the first REF waits out tRFC."""
        mc = MemoryController(make_channel(), McConfig())
        # tREFI=3900, tRFC=410: an ACT at 3890 cannot complete before
        # the REF, so it issues after the REF window.
        done = mc.serve_streams([[Request(issue_ns=3890.0, row=1)]])
        assert done.start_ns[0] >= 3900.0 + 410.0

    def test_writes_complete_but_are_flagged(self):
        mc = MemoryController(make_channel(), McConfig())
        done = mc.serve_streams([[
            Request(issue_ns=0.0, row=1, is_write=True),
            Request(issue_ns=100.0, row=2),
        ]])
        assert served(done, "is_write") == [True, False]

    def test_empty_stream(self):
        mc = MemoryController(make_channel(), McConfig())
        assert len(mc.serve_streams([[]])) == 0
