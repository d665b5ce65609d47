"""Attaching a recorder observes the run — it never changes it.

The null-object contract: every component defaults to
:data:`repro.obs.NULL_RECORDER`, emission sites are guarded on cold
paths only, and ``serve_streams`` dispatch is recorder-blind. So a run
with a live :class:`~repro.obs.TraceRecorder` must be bit-identical to
the same run without one — across every mitigation policy and
scheduling policy — and the ALERT events must reconcile
exactly with the run's ``alerts`` counter (every execution path
funnels ALERT assertion through ``_maybe_assert_alert``, the single
emission site).
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.mc.sched import SCHEDULERS
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.obs import EVENT_KINDS, TraceRecorder
from repro.sim.mc import McRunConfig, run_mc
from repro.sweep.mc_spec import HAMMER_WORKLOAD
from repro.system import ClientSpec, SystemRunConfig, run_system

#: Small but ALERT-provoking closed-loop scale (ath=16 over the hammer
#: mix asserts ALERTs within a few dozen tREFI).
_N_TREFI = 48


def _config(policy: str, scheduler: str) -> McRunConfig:
    return McRunConfig(
        ath=16,
        policy=PolicySpec(policy),
        workload=HAMMER_WORKLOAD,
        scheduler=scheduler,
        banks=2,
        n_trefi=_N_TREFI,
    )


@given(
    policy=st.sampled_from(sorted(POLICY_KINDS.names())),
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
)
@settings(max_examples=20, deadline=None)
def test_recorder_never_changes_mc_results(policy, scheduler):
    config = _config(policy, scheduler)
    plain = run_mc(config)
    recorder = TraceRecorder()
    traced = run_mc(config, recorder=recorder)

    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert recorder.count("alert") == traced.alerts
    assert set(event.kind for event in recorder.events) <= set(EVENT_KINDS)


def test_alert_events_reconcile_under_pressure():
    """A run with many ALERTs: one event per counter increment."""
    config = _config("moat", "frfcfs")
    recorder = TraceRecorder()
    result = run_mc(config, recorder=recorder)
    assert result.alerts > 0
    alerts = recorder.of_kind("alert")
    assert len(alerts) == result.alerts
    # ALERT durations are the engine's stall windows, in sim time.
    assert all(event.dur_ns > 0 for event in alerts)
    assert all(0 <= event.ts_ns for event in alerts)


def test_ref_events_follow_the_refresh_schedule():
    recorder = TraceRecorder()
    result = run_mc(_config("moat", "frfcfs"), recorder=recorder)
    refs = recorder.of_kind("ref")
    # One REF per elapsed tREFI per sub-channel (minus edge windows).
    assert result.requests > 0
    assert _N_TREFI - 2 <= len(refs) <= _N_TREFI


def test_recorder_never_changes_system_results():
    config = SystemRunConfig(
        clients=(
            ClientSpec(name="tenant0", seed=0),
            ClientSpec(name="tenant1", seed=1),
        ),
        channels=2,
        ath=16,
        banks=2,
        n_trefi=_N_TREFI,
    )
    plain = run_system(config, jobs=1)
    recorder = TraceRecorder()
    traced = run_system(config, jobs=1, recorder=recorder)

    assert dataclasses.asdict(traced.aggregate) == dataclasses.asdict(
        plain.aggregate
    )
    assert [dataclasses.asdict(c) for c in traced.clients] == [
        dataclasses.asdict(c) for c in plain.clients
    ]
    # Crossbar grants are derived per completion, with the channel's
    # sub-channel base offset applied.
    grants = recorder.of_kind("grant")
    assert len(grants) == traced.aggregate.requests
    assert {g.sub for g in grants} == set(
        range(config.channels * config.subchannels)
    )
    assert recorder.count("alert") == traced.aggregate.alerts
