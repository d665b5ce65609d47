"""Attaching a recorder observes the run — it never changes it.

The null-object contract: every component defaults to
:data:`repro.obs.NULL_RECORDER`, emission sites are guarded on cold
paths only, and ``serve_streams`` dispatch is recorder-blind. So a run
with a live :class:`~repro.obs.TraceRecorder` must be bit-identical to
the same run without one on every front end: the open loop (``activate``
and ``activate_many``, danger tracking on and off), the closed loop's
struct-of-arrays and reference serve loops, and the multi-channel
system. Its events must reconcile exactly with the run's counters: one
``alert`` per ALERT (every execution path funnels ALERT assertion
through ``_maybe_assert_alert``, the single emission site) and one
``act`` per ACT (the engine's ``activate`` in the open loop, the served
batch in the closed loop).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.sched import SCHEDULERS
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.obs import EVENT_KINDS, TraceRecorder
from repro.sim.channel import ChannelSim
from repro.sim.mc import McRunConfig, run_mc
from repro.sim.perf import RunConfig, build_run_channel
from repro.sweep.mc_spec import HAMMER_WORKLOAD
from repro.system import ClientSpec, SystemRunConfig, run_system
from repro.workloads.generator import generate_channel_schedules
from repro.workloads.profiles import profile_by_name

#: Small but ALERT-provoking closed-loop scale (ath=16 over the hammer
#: mix asserts ALERTs within a few dozen tREFI).
_N_TREFI = 48

#: The events the controller derives from a served batch.
_DERIVED_KINDS = ("queue-admit", "queue-issue", "act", "complete")


def _config(policy: str, scheduler: str) -> McRunConfig:
    return McRunConfig(
        ath=16,
        policy=PolicySpec(policy),
        workload=HAMMER_WORKLOAD,
        scheduler=scheduler,
        banks=2,
        n_trefi=_N_TREFI,
    )


def _system_config(subchannels: int = 1) -> SystemRunConfig:
    return SystemRunConfig(
        clients=(
            ClientSpec(name="tenant0", seed=0),
            ClientSpec(name="tenant1", seed=1),
        ),
        channels=2,
        subchannels=subchannels,
        ath=16,
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
    assert recorder.count("act") == traced.total_acts
    assert set(event.kind for event in recorder.events) <= set(EVENT_KINDS)


@pytest.mark.parametrize("row_policy, queue_depth, path", [
    ("closed", 32, "soa"),
    ("open", 32, "reference:open-page"),
    ("closed", None, "reference:unbounded-queue"),
])
def test_every_closed_loop_act_is_recorded_once(row_policy, queue_depth,
                                                path):
    """The served batch is the one record of the ACTs on either serve
    loop, although the struct-of-arrays loop hands only the ACTs next
    to engine events to the engine."""
    config = dataclasses.replace(
        _config("moat", "frfcfs"), row_policy=row_policy,
        queue_depth=queue_depth,
    )
    plain = run_mc(config)
    recorder = TraceRecorder()
    traced = run_mc(config, recorder=recorder)

    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    assert recorder.meta["serve_paths"] == {path: 1}
    assert recorder.count("act") == traced.total_acts > 0
    assert traced.total_acts == traced.requests - traced.row_hits
    assert recorder.count("complete") == traced.requests


def test_alert_events_reconcile_under_pressure():
    """A run with many ALERTs: one event per counter increment."""
    config = _config("moat", "frfcfs")
    recorder = TraceRecorder()
    result = run_mc(config, recorder=recorder)
    assert result.alerts > 0
    alerts = [e for e in recorder.events if e.kind == "alert"]
    assert len(alerts) == result.alerts
    # ALERT durations are the engine's stall windows, in sim time.
    assert all(event.dur_ns > 0 for event in alerts)
    assert all(0 <= event.ts_ns for event in alerts)


def test_ref_events_follow_the_refresh_schedule():
    recorder = TraceRecorder()
    result = run_mc(_config("moat", "frfcfs"), recorder=recorder)
    refs = [e for e in recorder.events if e.kind == "ref"]
    # One REF per elapsed tREFI per sub-channel (minus edge windows).
    assert result.requests > 0
    assert _N_TREFI - 2 <= len(refs) <= _N_TREFI


def test_recorder_never_changes_system_results():
    config = _system_config()
    plain = run_system(config, jobs=1)
    recorder = TraceRecorder()
    traced = run_system(config, jobs=1, recorder=recorder)

    assert dataclasses.asdict(traced.aggregate) == dataclasses.asdict(
        plain.aggregate
    )
    assert [dataclasses.asdict(c) for c in traced.clients] == [
        dataclasses.asdict(c) for c in plain.clients
    ]
    assert recorder.count("queue-admit") == traced.aggregate.requests
    assert recorder.count("act") == traced.aggregate.total_acts
    assert recorder.count("alert") == traced.aggregate.alerts


@pytest.mark.parametrize("subchannels", [1, 2])
def test_system_events_carry_their_own_subchannel(subchannels):
    """Each shard's derived events are numbered from its channel's
    sub-channel base, like its engines' REF and ALERT events."""
    config = _system_config(subchannels)
    recorder = TraceRecorder()
    run_system(config, jobs=1, recorder=recorder)
    every_sub = set(range(config.channels * subchannels))
    for kind in _DERIVED_KINDS + ("ref",):
        assert {e.sub for e in recorder.events
                if e.kind == kind} == every_sub, kind


def _open_loop(config: RunConfig, schedules, track_danger: bool,
               recorder=None) -> ChannelSim:
    """Drive a run channel over ``schedules[sub][bank]`` the way the
    open-loop front end does, one batch per (tREFI, sub-channel, bank),
    except that every other tREFI issues its ACTs one at a time."""
    channel = build_run_channel(
        config, len(schedules), len(schedules[0]), 64 * 1024,
    )
    for sub in channel.subchannels:
        for bank in sub.banks:
            bank.track_danger = track_danger
    if recorder is not None:
        channel.attach_recorder(recorder)
    t_refi = channel.timing.t_refi
    for interval in range(config.n_trefi):
        channel.advance_to(interval * t_refi)
        for sub, bank_schedules in enumerate(schedules):
            for bank, schedule in enumerate(bank_schedules):
                rows = schedule.per_trefi[interval]
                if interval % 2:
                    for row in rows:
                        channel.activate(row, bank=bank, subchannel=sub)
                else:
                    channel.activate_many(rows, bank=bank, subchannel=sub)
    channel.flush()
    return channel


@pytest.mark.parametrize("track_danger", [False, True])
@pytest.mark.parametrize("policy", ["moat", "panopticon", "para", "null"])
def test_every_open_loop_act_is_recorded_once(policy, track_danger):
    config = RunConfig(ath=16, policy=PolicySpec(policy), subchannels=2,
                       n_trefi=_N_TREFI)
    schedules = generate_channel_schedules(
        profile_by_name("roms"), num_subchannels=2, banks_per_subchannel=2,
        n_trefi=_N_TREFI,
    )
    plain = _open_loop(config, schedules, track_danger)
    recorder = TraceRecorder()
    traced = _open_loop(config, schedules, track_danger, recorder)

    assert traced.stats() == plain.stats()
    assert recorder.count("act") == traced.total_acts > 0
    assert recorder.count("alert") == traced.alerts
    assert {e.sub for e in recorder.events if e.kind == "act"} == {0, 1}
