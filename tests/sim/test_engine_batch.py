"""Batched-activation equivalence: activate_many == activate loop.

The fast inner loop of :meth:`SubchannelSim.activate_many` skips the
per-ACT method-call chain, so these tests pin its one contract: the
simulation state it produces is *bit-identical* to issuing the same
rows through :meth:`SubchannelSim.activate` one at a time, across
every event the engine schedules (REFs, proactive mitigations, ALERT
episodes, external services) and for every policy kind.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.timing import DDR5_PRAC_TIMING
from repro.mitigations.null import NullPolicy
from repro.mitigations.registry import POLICY_KINDS, PolicySpec, RunParams
from repro.sim.backend import resolve_backend
from repro.sim.engine import SimConfig, SubchannelSim
from repro.workloads.generator import generate_schedule
from repro.workloads.profiles import profile_by_name

TREFI = 3900.0

#: The implementations :func:`resolve_backend` can name. Only the pure
#: struct-of-arrays loop remains; the parameter labels each case with
#: the name benchmark records and provenance blocks report for it.
BACKENDS = (resolve_backend().name,)


def drive(sim, schedule, batched: bool) -> dict:
    for interval, rows in enumerate(schedule):
        target = interval * TREFI
        if sim.now < target:
            sim.advance_to(target)
        if batched:
            sim.activate_many(rows)
        else:
            for row in rows:
                sim.activate(row)
    sim.flush()
    return sim.stats()


def danger_views(config, kind, params, schedule) -> list:
    """One schedule driven per ACT, then batched: each run's
    ``stats()`` plus each bank's danger accounting (the victim row of
    the high-water mark and the exposure of every row)."""
    views = []
    for batched in (False, True):
        sim = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        drive(sim, schedule, batched=batched)
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
        factory = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        schedule = workload_schedule(n_trefi=256)
        config = SimConfig(track_danger=False)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    def test_alert_heavy_run(self):
        """A hot single row forces frequent ALERT episodes."""
        schedule = [[7, 7, 7, 9, 7] for _ in range(300)]
        config = SimConfig(track_danger=False)
        factory = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched
        assert serial["alerts"] > 0  # the scenario actually alerts

    def test_external_services(self):
        schedule = workload_schedule(n_trefi=256)
        config = SimConfig(
            track_danger=False, external_service_interval_ns=5000.0
        )
        factory = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    def test_track_danger_fallback_matches(self):
        """With danger tracking on, the flat loop spreads each ACT to
        its victims, so the security metric matches too."""
        schedule = workload_schedule(n_trefi=128)
        config = SimConfig(track_danger=True)
        factory = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched
        assert serial["max_danger"] > 0  # danger was actually tracked

    def test_not_before_floor_applies(self):
        config = SimConfig(track_danger=False)
        factory = PolicySpec("moat").make_factory(RunParams())
        sim = SubchannelSim(config, factory)
        last = sim.activate_many([1, 2, 3], not_before=500.0)
        assert last >= 500.0

    def test_empty_batch_is_a_noop(self):
        config = SimConfig(track_danger=False)
        factory = PolicySpec("moat").make_factory(RunParams())
        sim = SubchannelSim(config, factory)
        assert sim.activate_many([]) is None
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
                for _ in range(2)]
        serial, batched = sims
        for interval, rows in enumerate(schedule):
            for sim in sims:
                sim.advance_to(interval * TREFI)
            last = [serial.activate(row).time for row in rows][-1]
            assert batched.activate_many(rows) == last, f"interval {interval}"
            assert batched.stats() == serial.stats(), f"interval {interval}"


class TestRowRange:
    """``activate_many`` range-checks the batch before issuing any ACT,
    with :meth:`SubchannelSim.activate`'s message."""

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


class TestBackendEquivalence:
    """The batch path of every implementation :func:`resolve_backend`
    can name must match the scalar per-ACT reference bit for bit — the
    contract that lets benchmark records and provenance blocks carry
    the backend name without it entering any sweep identity."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_every_policy_kind(self, kind, backend):
        assert resolve_backend(backend).name == backend
        schedule = workload_schedule(n_trefi=128)
        factory = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        config = SimConfig(track_danger=False)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alert_heavy_run(self, backend):
        assert resolve_backend(backend).name == backend
        schedule = [[7, 7, 7, 9, 7] for _ in range(300)]
        factory = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        config = SimConfig(track_danger=False)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched
        assert serial["alerts"] > 0


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
        serial, batched = danger_views(
            SimConfig(track_danger=True), kind, RunParams(ath=64, eth=32),
            workload_schedule(n_trefi=128),
        )
        assert batched == serial
        assert serial[0]["max_danger"] > 0

    def test_alert_heavy_run(self):
        serial, batched = danger_views(
            SimConfig(track_danger=True, rows_per_bank=64,
                      num_refresh_groups=8),
            "moat", RunParams(ath=32, eth=16),
            [[7, 7, 7, 9, 7] for _ in range(300)],
        )
        assert batched == serial
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
        serial, batched = danger_views(
            SimConfig(track_danger=True, rows_per_bank=64,
                      num_refresh_groups=8),
            kind, RunParams(ath=12, eth=6), schedule,
        )
        assert batched == serial


class TestBatchedProperties:
    @given(
        schedule=random_schedules,
        kind=st.sampled_from(sorted(POLICY_KINDS.names())),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_schedules_bit_identical(self, schedule, kind):
        """Arbitrary schedules, every policy: the batch path equals the
        scalar reference. A low ATH makes even short random streams
        cross the ALERT machinery."""
        params = RunParams(ath=12, eth=6)
        factory = PolicySpec(kind).make_factory(params)
        config = SimConfig(track_danger=False)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(params)
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched


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
    mitigation log after each one."""
    config = SimConfig(
        track_danger=False, rows_per_bank=64, num_refresh_groups=8,
        abo_level=params.abo_level,
    )
    sims, logs = [], []
    for _ in range(2):
        sim = SubchannelSim(config, PolicySpec(kind).make_factory(params))
        log = []
        sim.mitigation_listeners.append(
            lambda *event, log=log: log.append(event))
        sims.append(sim)
        logs.append(log)
    serial, batched = sims
    for interval, rows in enumerate(schedule):
        for sim in sims:
            if sim.now < interval * TREFI:
                sim.advance_to(interval * TREFI)
        for row in rows:
            serial.activate(row)
        batched.activate_many(rows)
        assert (policy_view(batched, logs[1])
                == policy_view(serial, logs[0])), f"interval {interval}"
        yield serial, logs[0]


class TestPolicyInterest:
    """``activate_many`` skips the policy call for the ACTs a policy
    declares no interest in; ``activate`` calls it on every ACT. The two
    must agree interval by interval, including on MOAT's registers."""

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
