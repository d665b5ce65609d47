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
    stats = sim.stats()
    # Include policy-visible state so divergence inside the policy
    # (not just the aggregate counters) is caught too.
    stats["policy_proactive"] = sim.policy.proactive_mitigations
    stats["policy_reactive"] = sim.policy.reactive_mitigations
    return stats


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
        config = SimConfig(track_danger=False, dense_counters=True)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    def test_alert_heavy_run(self):
        """A hot single row forces frequent ALERT episodes."""
        schedule = [[7, 7, 7, 9, 7] for _ in range(300)]
        config = SimConfig(track_danger=False, dense_counters=True)
        factory = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched
        assert serial["alerts"] > 0  # the scenario actually alerts

    def test_external_services(self):
        schedule = workload_schedule(n_trefi=256)
        config = SimConfig(
            track_danger=False,
            dense_counters=True,
            external_service_interval_ns=5000.0,
        )
        factory = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    def test_sparse_bank_fallback_matches(self):
        """Without dense counters the batch entry point still works
        (per-ACT fallback) and produces identical results."""
        schedule = workload_schedule(n_trefi=128)
        factory = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        sparse = drive(
            SubchannelSim(SimConfig(track_danger=False), factory),
            schedule,
            batched=True,
        )
        factory2 = PolicySpec("moat").make_factory(RunParams(ath=64, eth=32))
        dense = drive(
            SubchannelSim(
                SimConfig(track_danger=False, dense_counters=True), factory2
            ),
            schedule,
            batched=True,
        )
        assert sparse == dense

    def test_not_before_floor_applies(self):
        config = SimConfig(track_danger=False, dense_counters=True)
        factory = PolicySpec("moat").make_factory(RunParams())
        sim = SubchannelSim(config, factory)
        last = sim.activate_many([1, 2, 3], not_before=500.0)
        assert last >= 500.0

    def test_empty_batch_is_a_noop(self):
        config = SimConfig(track_danger=False, dense_counters=True)
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
        config = SimConfig(track_danger=False, dense_counters=True)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(RunParams(ath=64, eth=32))
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_alert_heavy_run(self, backend):
        assert resolve_backend(backend).name == backend
        schedule = [[7, 7, 7, 9, 7] for _ in range(300)]
        factory = PolicySpec("moat").make_factory(RunParams(ath=32, eth=16))
        config = SimConfig(track_danger=False, dense_counters=True)
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
        config = SimConfig(track_danger=False, dense_counters=True)
        serial = drive(SubchannelSim(config, factory), schedule, batched=False)
        factory2 = PolicySpec(kind).make_factory(params)
        batched = drive(SubchannelSim(config, factory2), schedule, batched=True)
        assert serial == batched


class TestDenseCounters:
    def test_dense_rejects_initial_counter(self):
        from repro.dram.bank import Bank

        with pytest.raises(ValueError):
            Bank(dense_counters=True, initial_counter=lambda row: 1)

    def test_dense_counter_semantics_match_sparse(self):
        from repro.dram.bank import Bank

        dense = Bank(num_rows=64, dense_counters=True, track_danger=False)
        sparse = Bank(num_rows=64, track_danger=False)
        for bank in (dense, sparse):
            for row in (3, 3, 5, 3):
                bank.activate(row)
            bank.reset_prac(5)
        assert dense.prac_count(3) == sparse.prac_count(3) == 3
        assert dense.prac_count(5) == sparse.prac_count(5) == 0
        assert dense.touched_rows() == {3: 3}
        assert dense.rows_with_prac_at_least(3) == 1
