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

The open-loop cases drive a two-sub-channel channel both one interval
at a time (:func:`_open_loop`) and in one ``activate_intervals`` call,
and the per-interval driver is also the reference for the
two-sub-channel runs of ``run_workload``.
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
from repro.sim.perf import (
    RunConfig,
    _perf_result,
    build_run_channel,
    run_workload,
)
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


def _lanes(schedules) -> list:
    """``lanes[sub][bank][k]``: each schedule's per-tREFI rows."""
    return [[schedule.per_trefi for schedule in bank_schedules]
            for bank_schedules in schedules]


def _run_channel(config: RunConfig, schedules, track_danger: bool,
                 recorder=None) -> ChannelSim:
    """A run channel shaped like ``schedules[sub][bank]``, with danger
    tracking set and ``recorder`` attached."""
    channel = build_run_channel(
        config, len(schedules), len(schedules[0]), 64 * 1024,
    )
    for sub in channel.subchannels:
        for bank in sub.banks:
            bank.track_danger = track_danger
    if recorder is not None:
        channel.attach_recorder(recorder)
    return channel


def _open_loop(channel: ChannelSim, lanes, skewed=None) -> ChannelSim:
    """Drive ``channel`` over ``lanes[sub][bank][k]`` one interval at a
    time, the per-interval reference of ``ChannelSim.
    activate_intervals``: one batch per (tREFI, sub-channel, bank),
    except that every other tREFI issues its ACTs one at a time. The
    channel idles only when its clock, the furthest sub-channel's, is
    behind the boundary; ``skewed`` collects the intervals whose
    boundary falls between the sub-channel clocks."""
    t_refi = channel.timing.t_refi
    for interval in range(len(lanes[0][0])):
        boundary = interval * t_refi
        behind = min(sub.now for sub in channel.subchannels)
        if skewed is not None and behind < boundary <= channel.now:
            skewed.append(interval)
        if channel.now < boundary:
            channel.advance_to(boundary)
        for sub, bank_lanes in enumerate(lanes):
            for bank, lane in enumerate(bank_lanes):
                rows = lane[interval]
                if interval % 2:
                    for row in rows:
                        channel.activate(row, bank=bank, subchannel=sub)
                else:
                    channel.activate_many(rows, bank=bank, subchannel=sub)
    channel.flush()
    return channel


def _whole_run(channel: ChannelSim, lanes) -> ChannelSim:
    channel.activate_intervals(lanes, channel.timing.t_refi)
    channel.flush()
    return channel


@pytest.mark.parametrize("drive", [_open_loop, _whole_run],
                         ids=["per-interval", "whole-run"])
@pytest.mark.parametrize("track_danger", [False, True])
@pytest.mark.parametrize("policy", ["moat", "panopticon", "para", "null"])
def test_every_open_loop_act_is_recorded_once(policy, track_danger, drive):
    config = RunConfig(ath=16, policy=PolicySpec(policy), subchannels=2,
                       n_trefi=_N_TREFI)
    schedules = generate_channel_schedules(
        profile_by_name("roms"), num_subchannels=2, banks_per_subchannel=2,
        n_trefi=_N_TREFI,
    )
    plain = drive(_run_channel(config, schedules, track_danger),
                  _lanes(schedules))
    recorder = TraceRecorder()
    traced = drive(_run_channel(config, schedules, track_danger, recorder),
                   _lanes(schedules))

    assert traced.stats() == plain.stats()
    assert recorder.count("act") == traced.total_acts > 0
    assert recorder.count("alert") == traced.alerts
    assert {e.sub for e in recorder.events if e.kind == "act"} == {0, 1}


@pytest.mark.parametrize("workload, banks", [("roms", 2), ("mcf", 1)])
def test_two_subchannel_runs_match_the_per_interval_driver(workload, banks):
    """``run_workload`` at two sub-channels issues its batches in the
    per-interval order. Both points have boundaries that find one
    sub-channel's clock ahead and the other's behind."""
    profile = profile_by_name(workload)
    config = RunConfig(ath=16, subchannels=2, banks_simulated=banks,
                       n_trefi=_N_TREFI, model_cross_bank_service=False)
    schedules = generate_channel_schedules(
        profile, num_subchannels=2, banks_per_subchannel=banks,
        n_trefi=_N_TREFI,
    )
    skewed = []
    channel = _open_loop(_run_channel(config, schedules, False),
                         _lanes(schedules), skewed)
    expected = _perf_result(
        config, channel, workload, _N_TREFI,
        elapsed_ns=max(channel.now, _N_TREFI * channel.timing.t_refi),
        banks_per_subchannel=config.banks_per_subchannel,
    )
    assert run_workload(profile, config) == expected
    assert skewed


def test_a_subchannel_behind_the_boundary_is_not_idled_on_its_own():
    """Sub-channel 1's first batch runs past the tREFI boundary while
    sub-channel 0's ends before it, so the channel does not idle there.
    Sub-channel 0's next ACT then retires its REF (at tREFI) and its
    external service (at 4000 ns) itself, the service first (the drain
    order that ``tests/sim/test_engine.py::TestDrainOrder`` pins), and
    the service takes Panopticon's queued row 7. Idling sub-channel 0 on
    its own to the boundary would leave row 7 to the REF."""
    config = RunConfig(ath=32, policy=PolicySpec("panopticon"),
                       trefi_per_mitigation=1, subchannels=2)
    lanes = [[[[7] * 32, [5]]], [[[9] * 50, [11]]]]
    views = []
    for drive in (_open_loop, _whole_run, _idle_each_subchannel):
        channel = build_run_channel(config, 2, 1, 64 * 1024,
                                    external_service_interval_ns=4000.0)
        log = []
        for index, sub in enumerate(channel.subchannels):
            sub.mitigation_listeners.append(
                lambda *event, index=index: log.append((index,) + event))
        views.append((drive(channel, lanes).stats(), log))
    reference, run, each = views
    assert reference[1] == [(1, 0, 9, False, 3900.0), (0, 0, 7, True, 4000.0)]
    assert run == reference
    assert each[1] == [(1, 0, 9, False, 3900.0), (0, 0, 7, False, 3900.0)]


def _idle_each_subchannel(channel: ChannelSim, lanes) -> ChannelSim:
    """The per-interval driver with every sub-channel idled to each
    boundary on its own (not what the open loop does)."""
    t_refi = channel.timing.t_refi
    for interval in range(len(lanes[0][0])):
        for sub in channel.subchannels:
            sub.advance_to(interval * t_refi)
        for index, bank_lanes in enumerate(lanes):
            for bank, lane in enumerate(bank_lanes):
                channel.activate_many(lane[interval], bank=bank,
                                      subchannel=index)
    channel.flush()
    return channel
