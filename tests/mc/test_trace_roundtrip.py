"""Trace -> request replay round-trip.

A v2 address trace pushed through the mc layer at infinite queue depth
with the FCFS scheduler must be *bit-identical* to the open-loop
replay path (:func:`repro.sim.perf.replay` /
:func:`repro.sim.perf.run_trace`): same activation ordering — every
(issue time, sub-channel, bank, row) — and same end-of-run statistics.
This pins the controller's timing model to the established replay
semantics: the closed-loop layer adds queueing on top, it never
perturbs the stream it is fed when nothing contends.
"""

import pytest

from repro.mc import McConfig, MemoryController
from repro.sim.mapping import CoffeeLakeMapping
from repro.sim.mc import McRunConfig, run_mc_trace
from repro.sim.perf import RunConfig, build_run_channel, replay, run_trace
from repro.workloads.generator import generate_address_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.requests import requests_from_trace

MAPPING = CoffeeLakeMapping()
#: Infinite depth + FCFS = the open-loop replay discipline.
REPLAY_MC = McConfig(queue_depth=None, scheduler="fcfs", row_policy="closed")


def record_activations(channel, log):
    """Wrap every sub-channel's activate to log (time, sub, bank, row)."""
    for index, sub in enumerate(channel.subchannels):
        original = sub.activate

        def wrapped(row, bank=0, not_before=0.0, _orig=original, _sub=index):
            result = _orig(row, bank=bank, not_before=not_before)
            log.append((result.time, _sub, bank, row))
            return result

        sub.activate = wrapped


@pytest.fixture(scope="module")
def trace():
    return generate_address_trace(
        profile_by_name("mcf"), MAPPING, n_trefi=48, seed=3
    )


def _fresh_channel(config):
    return build_run_channel(
        config, MAPPING.num_subchannels, MAPPING.num_banks,
        1 << MAPPING.row_bits,
    )


class TestRoundTrip:
    def test_activation_ordering_bit_identical(self, trace):
        config = McRunConfig(ath=64)

        open_loop = _fresh_channel(config)
        open_log = []
        record_activations(open_loop, open_log)
        replay(trace, open_loop, MAPPING)

        closed_loop = _fresh_channel(config)
        closed_log = []
        record_activations(closed_loop, closed_log)
        MemoryController(closed_loop, REPLAY_MC).serve_streams(
            [requests_from_trace(trace, MAPPING)]
        )

        assert len(open_log) == len(trace)
        assert open_log == closed_log
        assert open_loop.stats() == closed_loop.stats()

    def test_run_mc_trace_matches_run_trace(self, trace):
        perf = run_trace(trace, RunConfig(ath=64), mapping=MAPPING)
        mc = run_mc_trace(
            trace,
            McRunConfig(ath=64, queue_depth=None, scheduler="fcfs",
                        row_policy="closed"),
            mapping=MAPPING,
        )
        assert mc.alerts == perf.alerts
        assert mc.total_acts == perf.total_acts
        assert mc.elapsed_ns == perf.elapsed_ns
        assert mc.n_trefi == perf.n_trefi
        assert mc.stall_ns == perf.stall_ns
        assert mc.subchannels == perf.subchannels
        assert mc.workload == perf.workload

    def test_latencies_are_well_formed(self, trace):
        mc = run_mc_trace(
            trace,
            McRunConfig(ath=64, queue_depth=None, scheduler="fcfs"),
            mapping=MAPPING,
        )
        assert mc.requests == len(trace)
        assert mc.read_p50_ns <= mc.read_p99_ns <= mc.read_max_ns
        assert mc.read_mean_ns > 0

    def test_frfcfs_preserves_totals_not_ordering(self, trace):
        """Reordering schedulers serve the same work (same ACT count)
        even though the per-command sequence may differ."""
        mc = run_mc_trace(
            trace,
            McRunConfig(ath=64, queue_depth=32, scheduler="frfcfs"),
            mapping=MAPPING,
        )
        assert mc.requests == len(trace)
        assert mc.total_acts == len(trace)
