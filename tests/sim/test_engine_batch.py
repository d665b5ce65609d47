"""Batched-activation equivalence: activate_many == activate loop.

The fast inner loop of :meth:`SubchannelSim.activate_many` skips the
per-ACT method-call chain, so these tests pin its one contract: the
simulation state it produces is *bit-identical* to issuing the same
rows through :meth:`SubchannelSim.activate` one at a time, across
every event the engine schedules (REFs, proactive mitigations, ALERT
episodes, external services) and for every policy kind.
"""

import pytest
from hypothesis import given, settings, strategies as st

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
        """With danger tracking on, the batch entry point runs the
        per-ACT loop, so the security metric matches too."""
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


def policy_view(sim, log):
    """What the batch contract promises per interval: the mitigation
    sequence so far, MOAT's tracker and CMA registers, and the stats."""
    policy = sim.policies[0]
    tracker = [(e.row, e.count) for e in getattr(policy, "tracker", [])]
    return list(log), tracker, getattr(policy, "cma", None), sim.stats()


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
        config = SimConfig(
            track_danger=False, rows_per_bank=64, num_refresh_groups=8,
            abo_level=level,
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
        for interval, rows in enumerate(tracked_reset_schedule(ath)):
            for sim in sims:
                if sim.now < interval * TREFI:
                    sim.advance_to(interval * TREFI)
            for row in rows:
                serial.activate(row)
            batched.activate_many(rows)
            assert (policy_view(batched, logs[1])
                    == policy_view(serial, logs[0])), f"interval {interval}"
        if kind == "moat":
            assert logs[0]  # the stream reaches the mitigation paths
