"""Batched-activation equivalence: activate_many == activate loop.

The fast inner loop of :meth:`SubchannelSim.activate_many` skips the
per-ACT method-call chain, and :meth:`SubchannelSim.activate_intervals`
runs a whole open-loop schedule through the same loop in one call, so
these tests pin their one contract: the simulation state they produce
is *bit-identical* to issuing the same rows through
:meth:`SubchannelSim.activate` one at a time, across every event the
engine schedules (REFs, proactive mitigations, ALERT episodes, external
services) and for every policy kind.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.dram.timing import DDR5_PRAC_TIMING
from repro.mitigations.null import NullPolicy
from repro.mitigations.registry import POLICY_KINDS, PolicySpec, RunParams
from repro.sim.backend import resolve_backend
from repro.sim.channel import ChannelConfig, ChannelSim
import repro.sim.engine as engine_module
from repro.sim.engine import (
    T_ISSUE_GAP,
    SimConfig,
    SubchannelSim,
    _span_length,
)
from repro.workloads.generator import (
    generate_channel_schedules,
    generate_schedule,
)
from repro.workloads.profiles import profile_by_name

TREFI = 3900.0

#: The implementations :func:`resolve_backend` can name. Only the pure
#: struct-of-arrays loop remains; the parameter labels each case with
#: the name benchmark records and provenance blocks report for it.
BACKENDS = (resolve_backend().name,)

#: How :func:`drive` issues one bank's per-tREFI rows: one ``activate``
#: per ACT (the reference), one ``activate_many`` per interval, or the
#: whole run in one ``activate_intervals`` call.
MODES = ("per-act", "batched", "run")


def drive(sim, schedule, mode: str) -> dict:
    if mode == "run":
        sim.activate_intervals([schedule], TREFI)
    else:
        for interval, rows in enumerate(schedule):
            target = interval * TREFI
            if sim.now < target:
                sim.advance_to(target)
            if mode == "batched":
                sim.activate_many(rows)
            else:
                for row in rows:
                    sim.activate(row)
    sim.flush()
    return sim.stats()


def state_of(value):
    """``value`` in comparable form: a policy or its counter table by
    its attributes (a dict keeps its order), a random generator by its
    state."""
    if isinstance(value, random.Random):
        return value.getstate()
    if isinstance(value, dict):
        return [(key, state_of(item)) for key, item in value.items()]
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return state_of({name: getattr(value, name) for name in slots})
    if hasattr(value, "__dict__"):
        return state_of(vars(value))
    return value


def logged(sim) -> list:
    """Attach a mitigation log to ``sim``: (bank, row, reactive, time)
    per mitigation, in the order they run."""
    log = []
    sim.mitigation_listeners.append(lambda *event: log.append(event))
    return log


def mode_views(config, kind, params, schedule) -> list:
    """One run of ``schedule`` per mode, each on a fresh engine: the
    run's ``stats()``, its mitigation log and its policies' state."""
    views = []
    for mode in MODES:
        sim = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        log = logged(sim)
        stats = drive(sim, schedule, mode)
        views.append((stats, log, [state_of(p) for p in sim.policies]))
    return views


def assert_modes_agree(config, kind, params, schedule) -> dict:
    """Every mode matches the per-ACT run; returns its ``stats()``."""
    serial, *others = mode_views(config, kind, params, schedule)
    for mode, view in zip(MODES[1:], others):
        assert view == serial, mode
    return serial[0]


def danger_views(config, kind, params, schedule) -> list:
    """One schedule driven in each mode: each run's ``stats()`` plus
    each bank's danger accounting (the victim row of the high-water
    mark and the exposure of every row)."""
    views = []
    for mode in MODES:
        sim = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        drive(sim, schedule, mode)
        views.append((sim.stats(), [
            (bank.max_danger_row,
             [bank.danger_count(row) for row in range(bank.num_rows)])
            for bank in sim.banks
        ]))
    return views


def workload_schedule(n_trefi=512, seed=0):
    sched = generate_schedule(
        profile_by_name("roms"), n_trefi=n_trefi, seed=seed
    )
    return sched.per_trefi


class TestBatchedEquivalence:
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_every_policy_kind(self, kind):
        assert_modes_agree(
            SimConfig(track_danger=False), kind, RunParams(ath=64, eth=32),
            workload_schedule(n_trefi=256),
        )

    def test_alert_heavy_run(self):
        """A hot single row forces frequent ALERT episodes."""
        stats = assert_modes_agree(
            SimConfig(track_danger=False), "moat", RunParams(ath=32, eth=16),
            [[7, 7, 7, 9, 7] for _ in range(300)],
        )
        assert stats["alerts"] > 0  # the scenario actually alerts

    def test_external_services(self):
        stats = assert_modes_agree(
            SimConfig(track_danger=False, external_service_interval_ns=5000.0),
            "moat", RunParams(ath=64, eth=32), workload_schedule(n_trefi=256),
        )
        assert stats["external_services"] > 0

    def test_track_danger_fallback_matches(self):
        """With danger tracking on, the flat loop spreads each ACT to
        its victims, so the security metric matches too."""
        stats = assert_modes_agree(
            SimConfig(track_danger=True), "moat", RunParams(ath=64, eth=32),
            workload_schedule(n_trefi=128),
        )
        assert stats["max_danger"] > 0  # danger was actually tracked

    def test_not_before_floor_applies(self):
        config = SimConfig(track_danger=False)
        factory = PolicySpec("moat").make_factory(RunParams())
        sim = SubchannelSim(config, factory)
        last = sim.activate_many([1, 2, 3], not_before=500.0)
        assert last >= 500.0
        run = SubchannelSim(config, factory)
        assert run.activate_intervals([[[1, 2, 3]]], TREFI,
                                      not_before=500.0) == last

    def test_empty_batch_is_a_noop(self):
        config = SimConfig(track_danger=False)
        factory = PolicySpec("moat").make_factory(RunParams())
        sim = SubchannelSim(config, factory)
        assert sim.activate_many([]) is None
        assert sim.activate_intervals([[]], TREFI) is None
        assert sim.activate_intervals([[[], []]], TREFI) is None
        assert sim.total_acts == 0

    @pytest.mark.parametrize("kind", ["moat", "null"])
    def test_trc_below_issue_gap(self, kind):
        """A tRC under the issue gap paces one bank's ACTs by the gap:
        the flat loop steps by ``max(T_ISSUE_GAP, tRC)``, and starting
        each ACT at the previous one's completion would run early."""
        timing = dataclasses.replace(DDR5_PRAC_TIMING, t_rc=2.0)
        config = SimConfig(timing=timing, track_danger=False)
        params = RunParams(ath=32, eth=16)
        schedule = [[7, 7, 9, 7] * 30 for _ in range(40)]
        sims = [SubchannelSim(config, PolicySpec(kind).make_factory(params))
                for _ in range(3)]
        serial, batched, run = sims
        for interval, rows in enumerate(schedule):
            for sim in (serial, batched):
                sim.advance_to(interval * TREFI)
            last = [serial.activate(row).time for row in rows][-1]
            assert batched.activate_many(rows) == last, f"interval {interval}"
            assert batched.stats() == serial.stats(), f"interval {interval}"
        assert run.activate_intervals([schedule], TREFI) == last
        assert run.stats() == serial.stats()


class TestMultiBankRuns:
    """``activate_intervals`` over several banks issues each interval
    bank by bank, as one ``ChannelSim.activate_many`` per (interval,
    bank) does, and as one ``ChannelSim.activate`` per ACT does. No
    sweep preset simulates more than one bank. Every bank after the
    first starts its batch on the issue gap, so these spans start off
    whole nanoseconds."""

    @staticmethod
    def views(kind, lanes, mode: str, **config):
        channel = ChannelSim(
            ChannelConfig(sim=SimConfig(
                num_banks=len(lanes), track_danger=False, **config)),
            PolicySpec(kind).make_factory(RunParams(ath=32, eth=16)),
        )
        log = logged(channel.subchannel)
        if mode == "run":
            channel.activate_intervals([lanes], TREFI)
        else:
            for interval in range(len(lanes[0])):
                if channel.now < interval * TREFI:
                    channel.advance_to(interval * TREFI)
                for bank, lane in enumerate(lanes):
                    if mode == "batched":
                        channel.activate_many(lane[interval], bank=bank)
                    else:
                        for row in lane[interval]:
                            channel.activate(row, bank=bank)
        channel.flush()
        return (channel.stats(), log,
                [state_of(p) for p in channel.subchannel.policies])

    @pytest.mark.parametrize("banks", [2, 3, 4])
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_matches_per_interval_batches(self, kind, banks):
        (schedules,) = generate_channel_schedules(
            profile_by_name("roms"), banks_per_subchannel=banks, n_trefi=96,
        )
        lanes = [schedule.per_trefi for schedule in schedules]
        run = self.views(kind, lanes, "run")
        assert run == self.views(kind, lanes, "batched")
        assert run == self.views(kind, lanes, "per-act")
        if kind == "moat":
            assert run[0]["alerts"] > 0

    def test_external_services(self):
        (schedules,) = generate_channel_schedules(
            profile_by_name("roms"), banks_per_subchannel=3, n_trefi=96,
        )
        lanes = [schedule.per_trefi for schedule in schedules]
        for mode in ("run", "batched", "per-act"):
            view = self.views("moat", lanes, mode,
                              external_service_interval_ns=2500.0)
            if mode == "run":
                run = view
            assert view == run, mode
        assert run[0]["external_services"] > 0


class TestEmptyIntervalsIdle:
    """An empty interval still idles to its boundary. Here the empty
    interval 1 holds an external service (at 1.5 tREFI) between its REF
    (tREFI) and the next (2 tREFI). Idling straight from interval 0 to
    interval 2 retires that service before the earlier REF (see
    ``TestDrainOrder`` in ``test_engine.py``): the service, not the
    REF's proactive mitigation, then takes Panopticon's queued row."""

    def test_external_between_refs_of_an_empty_interval(self):
        config = SimConfig(
            track_danger=False, trefi_per_mitigation=1,
            external_service_interval_ns=1.5 * TREFI,
        )
        factory = PolicySpec("panopticon").make_factory(RunParams(ath=32))
        schedule = [[7] * 40, [], [9] * 3]
        logs = []
        for mode in MODES:
            sim = SubchannelSim(config, factory)
            logs.append(logged(sim))
            drive(sim, schedule, mode)
        assert logs[0] == [(0, 7, False, TREFI)]
        assert logs[1] == logs[0]
        assert logs[2] == logs[0]

        # One idle over both intervals orders the two events otherwise.
        merged = SubchannelSim(config, factory)
        log = logged(merged)
        merged.activate_many(schedule[0])
        merged.advance_to(2 * TREFI)
        merged.activate_many(schedule[2])
        assert log == [(0, 7, True, 1.5 * TREFI)]


class TestRowRange:
    """``activate_many`` and ``activate_intervals`` range-check every
    row before issuing any ACT, with :meth:`SubchannelSim.activate`'s
    message."""

    @pytest.mark.parametrize("row", [-1, 64])
    def test_out_of_range_row_issues_nothing(self, row):
        config = SimConfig(rows_per_bank=64, num_refresh_groups=8)
        sim = SubchannelSim(config, NullPolicy)
        sim.activate_many([1, 2])
        before = (sim.total_acts, sim.now, sim.bank.touched_rows())
        with pytest.raises(IndexError) as per_act:
            SubchannelSim(config, NullPolicy).activate(row)
        with pytest.raises(IndexError) as batch:
            sim.activate_many([3, row, 4])
        assert str(batch.value) == str(per_act.value)
        assert (sim.total_acts, sim.now, sim.bank.touched_rows()) == before

    @pytest.mark.parametrize("row", [-1, 64])
    def test_bad_row_in_the_last_interval_issues_nothing(self, row):
        """A run checks every lane first: a bad row in its last
        interval raises before the first interval issues or idles."""
        config = SimConfig(rows_per_bank=64, num_refresh_groups=8,
                           num_banks=2)
        with pytest.raises(IndexError) as per_act:
            SubchannelSim(config, NullPolicy).activate(row)
        sim = SubchannelSim(config, NullPolicy)
        lanes = [[[1, 2], [], [3]], [[5], [6, 7], [8, row]]]
        with pytest.raises(IndexError) as run:
            sim.activate_intervals(lanes, TREFI)
        assert str(run.value) == str(per_act.value)
        assert (sim.total_acts, sim.now, sim.refs) == (0, 0.0, 0)
        assert not any(bank.touched_rows() for bank in sim.banks)

    def test_channel_run_checks_every_subchannel_first(self):
        channel = ChannelSim(
            ChannelConfig(sim=SimConfig(rows_per_bank=64,
                                        num_refresh_groups=8),
                          num_subchannels=2),
            NullPolicy,
        )
        with pytest.raises(IndexError, match="row 64 out of range"):
            channel.activate_intervals([[[[1], [2]]], [[[3], [64]]]], TREFI)
        assert channel.total_acts == 0
        assert channel.now == 0.0


class TestBackendEquivalence:
    """The batch path of every implementation :func:`resolve_backend`
    can name must match the scalar per-ACT reference bit for bit — the
    contract that lets benchmark records and provenance blocks carry
    the backend name without it entering any sweep identity."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_every_policy_kind(self, kind, backend):
        assert resolve_backend(backend).name == backend
        assert_modes_agree(
            SimConfig(track_danger=False), kind, RunParams(ath=64, eth=32),
            workload_schedule(n_trefi=128),
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alert_heavy_run(self, backend):
        assert resolve_backend(backend).name == backend
        stats = assert_modes_agree(
            SimConfig(track_danger=False), "moat", RunParams(ath=32, eth=16),
            [[7, 7, 7, 9, 7] for _ in range(300)],
        )
        assert stats["alerts"] > 0


#: Randomized per-tREFI batches over a tiny row space, so short
#: sequences still produce tracker churn, ETH crossings, and ALERTs.
random_schedules = st.lists(
    st.lists(st.integers(min_value=0, max_value=23), max_size=16),
    max_size=48,
)


class TestDangerTrackedBatches:
    """A danger-tracked batch takes the flat loop: every victim's
    exposure, not only the high-water mark, must match the per-ACT
    path."""

    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_every_policy_kind(self, kind):
        serial, batched, run = danger_views(
            SimConfig(track_danger=True), kind, RunParams(ath=64, eth=32),
            workload_schedule(n_trefi=128),
        )
        assert batched == serial
        assert run == serial
        assert serial[0]["max_danger"] > 0

    def test_alert_heavy_run(self):
        serial, batched, run = danger_views(
            SimConfig(track_danger=True, rows_per_bank=64,
                      num_refresh_groups=8),
            "moat", RunParams(ath=32, eth=16),
            [[7, 7, 7, 9, 7] for _ in range(300)],
        )
        assert batched == serial
        assert run == serial
        assert serial[0]["alerts"] > 0

    @given(
        schedule=st.lists(
            st.lists(st.integers(min_value=0, max_value=63), max_size=24),
            max_size=48,
        ),
        kind=st.sampled_from(sorted(POLICY_KINDS.names())),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_schedules(self, schedule, kind):
        """A 64-row bank of eight refresh groups: the REF wave clears
        exposure every eight intervals, and rows 0 and 63 clip the
        blast radius."""
        serial, batched, run = danger_views(
            SimConfig(track_danger=True, rows_per_bank=64,
                      num_refresh_groups=8),
            kind, RunParams(ath=12, eth=6), schedule,
        )
        assert batched == serial
        assert run == serial


class TestBatchedProperties:
    @given(
        schedule=random_schedules,
        kind=st.sampled_from(sorted(POLICY_KINDS.names())),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_schedules_bit_identical(self, schedule, kind):
        """Arbitrary schedules, every policy: both batch paths equal the
        scalar reference. A low ATH makes even short random streams
        cross the ALERT machinery, and the draws include empty
        intervals."""
        assert_modes_agree(SimConfig(track_danger=False), kind,
                           RunParams(ath=12, eth=6), schedule)


def added_span(start, step, t_rc, remaining, horizon, next_external):
    """A span's issue times as :meth:`SubchannelSim.activate` reaches
    them: one addition per ACT, while each ACT completes by
    ``horizon`` and starts before ``next_external``."""
    times = [start]
    while len(times) < remaining:
        following = times[-1] + step
        if following + t_rc > horizon or next_external <= following:
            break
        times.append(following)
    return times


class TestSpanTimes:
    """The batch loop times ACT ``j`` of a span as ``start + j * step``
    (``engine._span_length``) where the per-ACT path adds ``step`` ``j``
    times; it does so only where the two agree bit for bit."""

    @given(
        start=st.one_of(
            st.integers(0, 1 << 26).map(float),
            st.floats(0.0, float(1 << 26), allow_nan=False),
        ),
        step=st.sampled_from([52.0, T_ISSUE_GAP, 48.5]),
        remaining=st.integers(1, 300),
        horizon_gap=st.one_of(st.just(math.inf), st.floats(52.0, 20000.0)),
        external_gap=st.one_of(st.just(math.inf), st.floats(1e-3, 20000.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_products_equal_additions(self, start, step, remaining,
                                      horizon_gap, external_gap):
        t_rc = 52.0
        horizon = start + horizon_gap
        next_external = start + external_gap
        # ACT 0 of a span has passed the event test.
        assume(not (start + t_rc > horizon or next_external <= start))
        span = _span_length(start, step, t_rc, remaining, horizon,
                            next_external)
        if span:
            times = added_span(start, step, t_rc, remaining, horizon,
                               next_external)
            assert [start + j * step for j in range(span)] == times

    def test_whole_nanoseconds_take_products(self):
        assert _span_length(7800.0, 52.0, 52.0, 40, math.inf, math.inf) == 40
        # A REF at 8000 ns: ACT 3 (7956-8008 ns) would overlap it.
        assert _span_length(7800.0, 52.0, 52.0, 40, 8000.0, math.inf) == 3
        # An external service at 7904 ns: ACT 2 would start at it.
        assert _span_length(7800.0, 52.0, 52.0, 40, math.inf, 7904.0) == 2

    def test_crossing_a_binade_on_a_low_bit_is_issued_per_act(self):
        start = odd_below(8192.0)
        assert _span_length(start, 52.0, 52.0, 20, math.inf, math.inf) == 0
        # Inside one binade the products are exact again.
        assert _span_length(start, 52.0, 52.0, 3, math.inf, math.inf) == 3
        # A step that is not a multiple of the ulp never takes products.
        assert _span_length(7800.0, T_ISSUE_GAP, 2.0, 3, math.inf,
                            math.inf) == 0

    @pytest.mark.parametrize("kind", ["moat", "panopticon"])
    def test_run_through_a_per_act_span_matches(self, kind, monkeypatch):
        """A batch whose ACTs cross 8192 ns from a start with a low bit
        the wider binade drops: the run issues those ACTs through
        ``activate`` and still equals the per-ACT reference."""
        declined = []

        def spy(*args):
            span = _span_length(*args)
            declined.append(span == 0)
            return span

        monkeypatch.setattr(engine_module, "_span_length", spy)
        config = SimConfig(track_danger=False)
        params = RunParams(ath=16, eth=8)
        floor = odd_below(8192.0)
        lanes = [[[], [], [5, 6] * 12 + [5] * 10, [7] * 30]]
        serial = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        serial_log = logged(serial)
        for interval, rows in enumerate(lanes[0]):
            if serial.now < interval * TREFI:
                serial.advance_to(interval * TREFI)
            times = [serial.activate(row, not_before=floor).time
                     for row in rows]
        serial.flush()
        run = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        run_log = logged(run)
        assert run.activate_intervals(lanes, TREFI,
                                      not_before=floor) == times[-1]
        run.flush()
        assert any(declined) and not all(declined)
        assert run.stats() == serial.stats()
        assert run_log == serial_log
        assert [state_of(p) for p in run.policies] == \
            [state_of(p) for p in serial.policies]


def odd_below(limit: float) -> float:
    """A time just below the power of two ``limit`` whose lowest bit
    the binade above cannot hold, so adding a whole step across
    ``limit`` rounds."""
    time = limit - 300.1
    if time % math.ulp(limit) == 0:
        time = math.nextafter(time, math.inf)
    return time


def tracked_reset_schedule(ath: int, intervals: int = 96):
    """Per-tREFI rows on a 64-row bank of eight 8-row refresh groups.

    Interval ``i`` hammers a row of group ``i % 8`` past ETH = ATH / 2
    (every third interval past ATH too), just before the next REF
    resets that group. The interval after gives that row a few ACTs
    first: its count restarts at 1 while the tracker may still hold it,
    the case where an ACT at or below ETH still matters to MOAT. The
    next row then stays below the stale count: replace-minimum and the
    proactive pick see the difference.
    """
    schedule = []
    hot = None
    for i in range(intervals):
        rows = [hot] * 3 if hot is not None else []
        # Rows 0-5 of the group: 6 and 7 keep SAFE shadow counters.
        hot = 8 * (i % 8) + (i // 8) % 6
        rows += [hot] * (ath // 2 + (8, 4, ath // 2 + 4)[i % 3])
        rows += [(hot + 19) % 64, (hot + 37) % 64]
        schedule.append(rows)
    return schedule


def floor_cycle_schedule(level: int, eth: int):
    """Per-tREFI rows that raise MOAT's live floor and drop it again,
    on the 64-row bank of eight 8-row refresh groups (the REF that
    closes interval ``i`` resets group ``i % 8``).

    * Interval 0 tracks ``level - 1`` strong rows of group 5.
    * Interval 1 fills the last slot with row 16 (ETH + 4), then row 8
      displaces it at ETH + 5: the floor rises to that count and then
      with row 8's copy, to ETH + 8. The closing REF resets group 1,
      row 8's PRAC counter with it.
    * Interval 2 re-activates row 8: its tracked copy falls to 2, and
      the floor to ETH. Row 24 then climbs to ETH + 5, above ETH but
      no higher than any floor row 8 held, so it must displace row 8.
    * Later intervals run through the proactive picks.
    """
    strong = []
    for j in range(level - 1):
        strong += [40 + j] * (eth + 16)
    schedule = [
        strong,
        [16] * (eth + 4) + [8] * (eth + 8),
        [8] * 2 + [24] * (eth + 5),
    ]
    for i in range(3, 12):
        schedule.append([24, 8] * 3 + [48 + i % 6] * (eth + 10))
    return schedule


def policy_view(sim, log):
    """What the batch contract promises per interval: the mitigation
    sequence so far, MOAT's tracker and CMA registers, and the stats."""
    policy = sim.policies[0]
    tracker = [(e.row, e.count) for e in getattr(policy, "tracker", [])]
    return list(log), tracker, getattr(policy, "cma", None), sim.stats()


def lockstep(kind, params, schedule):
    """Drive ``schedule`` per ACT and batched side by side on a 64-row
    bank of eight 8-row refresh groups, compare :func:`policy_view`
    after every interval, and yield the per-ACT engine and its
    mitigation log after each one. After the last interval, the whole
    schedule in one ``activate_intervals`` call must reach the same
    view."""
    config = SimConfig(
        track_danger=False, rows_per_bank=64, num_refresh_groups=8,
        abo_level=params.abo_level,
    )
    sims = [SubchannelSim(config, PolicySpec(kind).make_factory(params))
            for _ in MODES]
    logs = [logged(sim) for sim in sims]
    serial, batched, run = sims
    for interval, rows in enumerate(schedule):
        for sim in (serial, batched):
            if sim.now < interval * TREFI:
                sim.advance_to(interval * TREFI)
        for row in rows:
            serial.activate(row)
        batched.activate_many(rows)
        assert (policy_view(batched, logs[1])
                == policy_view(serial, logs[0])), f"interval {interval}"
        yield serial, logs[0]
    run.activate_intervals([schedule], TREFI)
    assert policy_view(run, logs[2]) == policy_view(serial, logs[0])


class TestPolicyInterest:
    """``activate_many`` skips the policy call for the ACTs a policy
    declares no interest in; ``activate`` calls it on every ACT. The two
    must agree interval by interval, including on MOAT's registers, and
    a whole-run ``activate_intervals`` call at the end."""

    @pytest.mark.parametrize("kind,level,eth", [
        ("moat", level, eth)
        for level in (1, 2, 4)
        for eth in (0, 32, 64)  # 0, ATH / 2 and ATH
    ] + [("null", 1, 32)])
    def test_interval_by_interval(self, kind, level, eth):
        ath = 64
        params = RunParams(ath=ath, eth=eth, abo_level=level)
        for _, log in lockstep(kind, params, tracked_reset_schedule(ath)):
            pass
        if kind == "moat":
            assert log  # the stream reaches the mitigation paths

    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_floor_follows_the_tracker(self, level):
        """MOAT's floor rises with its weakest tracked copy and falls
        when a REF-reset row is re-activated (see
        :func:`floor_cycle_schedule`)."""
        eth = 4
        params = RunParams(ath=64, eth=eth, abo_level=level)
        floors, tracked = [], []
        for serial, log in lockstep(
                "moat", params, floor_cycle_schedule(level, eth)):
            floors.append(serial.policy.act_floor)
            tracked.append({entry.row for entry in serial.policy.tracker})
        assert floors[:3] == [eth, eth + 8, eth + 5]
        assert 8 in tracked[1] and 16 not in tracked[1]
        assert 24 in tracked[2] and 8 not in tracked[2]
        assert log  # the proactive picks ran
