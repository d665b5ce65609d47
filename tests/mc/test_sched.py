"""Tests for the pluggable scheduling-policy layer.

Registry contents and validation (the single source of truth every
config front-end shares), the ``(scheduler, sched_params)`` spelling, unit
semantics of the three QoS kinds, and two property-based guarantees of
``priority`` scheduling: round-robin fairness among equal classes and
the age-based starvation bound under an adversarial high-priority
flood.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc import McConfig, MemoryController, Request
from repro.mc.sched import (
    SCHED_KINDS,
    SCHEDULERS,
    BwCapSched,
    FcfsSched,
    FrfcfsSched,
    PrioritySched,
    SloSched,
    make_sched,
    normalize_sched_params,
    sched_display,
    slo_budget_ns,
    validate_sched,
)
from repro.mitigations.null import NullPolicy
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig

T_COL = 10.0


def make_channel(num_banks=2, rows=1024):
    """A quiet channel: null mitigation, so no ALERT noise in timing."""
    return ChannelSim(
        ChannelConfig(
            sim=SimConfig(
                num_banks=num_banks,
                rows_per_bank=rows,
                num_refresh_groups=rows,
                track_danger=False,
            ),
        ),
        NullPolicy,
    )


class TestRegistry:
    def test_registered_kinds(self):
        assert SCHEDULERS == ("fcfs", "frfcfs", "priority", "bw-cap", "slo")
        assert SCHED_KINDS.names() == SCHEDULERS

    def test_every_kind_is_served_by_the_soa_loop(self):
        """No scheduler kind sends a closed-page crossbar run to the
        reference loop: the SoA serve loop models all of them."""
        streams = [
            [Request(issue_ns=9.0 * i, bank=i % 2, row=i % 7, client=c)
             for i in range(30)]
            for c in range(2)
        ]
        for kind in SCHEDULERS:
            mc = MemoryController(
                make_channel(), McConfig(scheduler=kind, queue_depth=4)
            )
            batch = mc.serve_streams(streams, [1, 0])
            assert batch.path == "soa", kind
            assert len(batch) == 60

    def test_make_sched_builds_the_registered_classes(self):
        built = {
            kind: make_sched(kind, (), [0, 0], T_COL, depth=32)
            for kind in SCHEDULERS
        }
        assert type(built["fcfs"]) is FcfsSched
        assert type(built["frfcfs"]) is FrfcfsSched
        assert type(built["priority"]) is PrioritySched
        assert type(built["bw-cap"]) is BwCapSched
        assert type(built["slo"]) is SloSched

    def test_make_sched_coerces_slo_window_to_int(self):
        sched = make_sched("slo", (("window", 64.0),), [0], T_COL, depth=8)
        assert sched.window == 64 and isinstance(sched.window, int)


class TestEmptyPick:
    """``pick`` on empty queues is a caller bug and fails loudly."""

    @pytest.mark.parametrize("kind", SCHEDULERS)
    def test_pick_with_every_queue_empty_raises(self, kind):
        sched = make_sched(kind, (), [0, 0], T_COL, depth=4)
        queues = [[[], []]]
        with pytest.raises(RuntimeError, match="every queue empty"):
            sched.pick(queues, [[0.0, 0.0]], 0.0, 0.0, False,
                       [[-1, -1]], [[0.0, 0.0]])


class TestValidation:
    def test_unknown_scheduler_message_is_pinned(self):
        with pytest.raises(
            ValueError,
            match=r"unknown scheduler 'elevator'; "
            r"known: fcfs, frfcfs, priority, bw-cap, slo",
        ):
            validate_sched("elevator")

    def test_unknown_param_message_names_known_params(self):
        with pytest.raises(
            ValueError,
            match=r"unknown sched param 'bogus' for 'slo'; "
            r"known: budget_ns, window",
        ):
            validate_sched("slo", (("bogus", 1.0),))

    def test_unknown_param_message_offers_indexed_spelling(self):
        with pytest.raises(ValueError, match=r"gbps<i>"):
            validate_sched("bw-cap", (("rate", 1.0),))

    def test_order_schedulers_take_no_params(self):
        with pytest.raises(ValueError, match=r"known: \(none\)"):
            validate_sched("frfcfs", (("gbps", 1.0),))

    def test_indexed_spelling_accepted_for_bw_cap_only(self):
        validate_sched("bw-cap", (("gbps2", 0.5),))
        with pytest.raises(ValueError, match="unknown sched param"):
            validate_sched("slo", (("budget_ns2", 1.0),))

    def test_duplicate_param_rejected(self):
        with pytest.raises(ValueError, match="duplicate sched param"):
            validate_sched("slo", (("window", 8), ("window", 16)))

    def test_non_numeric_and_non_positive_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            validate_sched("slo", (("window", "big"),))
        with pytest.raises(ValueError, match="must be a number"):
            validate_sched("slo", (("window", True),))
        with pytest.raises(ValueError, match="must be a number"):
            validate_sched("slo", (("window", (8,)),))
        with pytest.raises(ValueError, match="must be positive"):
            validate_sched("slo", (("window", 0),))

    @staticmethod
    def _assert_every_config_rejects(scheduler, sched_params, match):
        from repro.sim.mc import McRunConfig
        from repro.system.sim import SystemRunConfig

        for config in (McConfig, McRunConfig, SystemRunConfig):
            with pytest.raises(ValueError, match=match):
                config(scheduler=scheduler, sched_params=sched_params)

    def test_slo_window_below_one_rejected_at_construction(self):
        """window=0.5 truncated to an empty window and died mid-run
        with an IndexError in SloSched.note_complete."""
        self._assert_every_config_rejects(
            "slo", (("window", 0.5),), "'window' must be a whole number")

    def test_fractional_slo_window_rejected_at_construction(self):
        """window=8.5 ran exactly window=8 under a key and config hash
        of its own."""
        self._assert_every_config_rejects(
            "slo", (("window", 8.5),), "'window' must be a whole number")
        validate_sched("slo", (("window", 8.0),))

    def test_bw_cap_burst_below_one_rejected_at_construction(self):
        """A bucket of half a credit never admits a request, so the
        idle jump advanced time forever."""
        self._assert_every_config_rejects(
            "bw-cap", (("burst", 0.5),), "'burst' must be at least 1")
        validate_sched("bw-cap", (("burst", 1),))

    def test_indexed_param_beyond_client_count_fails_at_build(self):
        with pytest.raises(ValueError, match="targets client 5"):
            make_sched("bw-cap", (("gbps5", 0.5),), [0, 0], T_COL)

    def test_config_frontends_share_the_validator(self):
        """Every config spells scheduler errors identically (satellite:
        no drifting copies of the name list)."""
        from repro.sim.mc import McRunConfig
        from repro.system.sim import SystemRunConfig

        for build in (
            lambda: McConfig(scheduler="elevator"),
            lambda: McRunConfig(scheduler="elevator"),
            lambda: SystemRunConfig(scheduler="elevator"),
        ):
            with pytest.raises(ValueError, match="unknown scheduler"):
                build()


class TestSchedSpec:
    """The ``(scheduler, sched_params)`` spelling configs carry."""

    def test_display_name(self):
        assert sched_display("frfcfs") == "frfcfs"
        assert (
            sched_display("bw-cap", (("gbps2", 0.1), ("gbps", 8.0)))
            == "bw-cap(gbps=8,gbps2=0.1)"
        )

    def test_paramless_display_matches_pre_refactor_spelling(self):
        """Keys and baselines from before the policy layer survive."""
        for kind in SCHEDULERS:
            assert sched_display(kind, ()) == kind

    def test_normalize_sorts_by_name(self):
        assert normalize_sched_params([("b", 2), ("a", 1)]) == (
            ("a", 1), ("b", 2),
        )


class TestSloBudget:
    def test_only_slo_runs_have_a_budget(self):
        assert slo_budget_ns("frfcfs") is None
        assert slo_budget_ns("priority") is None

    def test_default_and_override(self):
        assert slo_budget_ns("slo") == 10_000.0
        assert slo_budget_ns("slo", (("budget_ns", 2500.0),)) == 2500.0


class TestBwCapUnit:
    def make(self, **kw):
        return BwCapSched([0, 0], T_COL, **kw)

    def req(self, t=0.0):
        return Request(issue_ns=t)

    def test_bucket_starts_full_and_drains(self):
        sched = self.make(gbps=1.0, burst=2.0)
        assert sched.admit_ok(0, self.req(), 0.0)
        sched.note_admit(0, self.req(), 0.0)
        sched.note_admit(0, self.req(), 0.0)
        # Two credits spent at t=0: the bucket is dry.
        assert not sched.admit_ok(0, self.req(), 0.0)
        # 1 GB/s over 64-byte lines refills a credit every 64 ns.
        assert sched.admit_ok(0, self.req(), 64.0)

    def test_clients_have_independent_buckets(self):
        sched = self.make(gbps=1.0, burst=1.0)
        sched.note_admit(0, self.req(), 0.0)
        assert not sched.admit_ok(0, self.req(), 0.0)
        assert sched.admit_ok(1, self.req(), 0.0)

    def test_indexed_override_targets_one_client(self):
        sched = self.make(gbps=8.0, burst=1.0, gbps1=0.1)
        sched.note_admit(0, self.req(), 0.0)
        sched.note_admit(1, self.req(), 0.0)
        # Client 0 refills a credit in 64/8 = 8 ns; client 1 in 640 ns.
        assert sched.admit_ok(0, self.req(), 8.0)
        assert not sched.admit_ok(1, self.req(), 8.0)
        assert sched.admit_ok(1, self.req(), 640.0)

    def test_admit_horizon_predicts_refill(self):
        sched = self.make(gbps=1.0, burst=1.0)
        sched.note_admit(0, self.req(), 0.0)
        horizon = sched.admit_horizon(0, self.req(0.0), 0.0)
        assert horizon == pytest.approx(64.0)
        # A full bucket's horizon is just the arrival time.
        assert sched.admit_horizon(1, self.req(5.0), 0.0) == 5.0

    def test_admit_horizon_always_moves_time_forward(self):
        """The idle-jump target must exceed ``now`` even when refill
        arithmetic underflows (the nextafter guard)."""
        sched = self.make(gbps=1e9, burst=1.0)
        now = 1e9
        # A dry-by-a-hair bucket at an enormous refill rate: the wait
        # is ~6e-18 ns, which vanishes against now in float addition.
        sched._tokens[0] = 1.0 - 1e-10
        sched._last[0] = now
        assert not sched.admit_ok(0, self.req(0.0), now)
        assert sched.admit_horizon(0, self.req(0.0), now) > now


class TestSloUnit:
    def make(self, budget_ns=100.0, window=4):
        return SloSched([0, 0], T_COL, depth=8,
                        budget_ns=budget_ns, window=window)

    def complete(self, sched, client, latency):
        sched.note_complete(
            Request(issue_ns=0.0, client=client), float(latency)
        )

    def test_demotes_when_p99_exceeds_budget(self):
        sched = self.make(budget_ns=100.0, window=4)
        self.complete(sched, 0, 50.0)
        assert not sched._demoted[0]
        self.complete(sched, 0, 500.0)
        # Nearest-rank p99 of [50, 500] is the max: over budget.
        assert sched._demoted[0]
        assert sched._demoted[1] is False

    def test_recovers_when_the_window_slides_past_the_spike(self):
        sched = self.make(budget_ns=100.0, window=4)
        self.complete(sched, 0, 500.0)
        assert sched._demoted[0]
        for _ in range(4):
            self.complete(sched, 0, 10.0)
        assert not sched._demoted[0]

    def test_writes_do_not_count_against_the_budget(self):
        sched = self.make(budget_ns=100.0, window=4)
        sched.note_complete(
            Request(issue_ns=0.0, client=0, is_write=True), 9999.0
        )
        assert not sched._demoted[0]

    def test_demoted_client_is_squeezed_to_one_entry_per_bank(self):
        sched = self.make()
        req = Request(issue_ns=0.0, client=0, bank=1)
        self.complete(sched, 0, 1e6)
        assert sched.admit_ok(0, req, 0.0)
        sched.note_admit(0, req, 0.0)
        assert not sched.admit_ok(0, req, 0.0)
        # Another bank's queue is a separate occupancy bucket.
        assert sched.admit_ok(0, Request(issue_ns=0.0, client=0), 0.0)

    def test_demotion_drops_the_admission_boost(self):
        sched = self.make()
        in_budget = sched.admit_priority(0, Request(issue_ns=0.0), 0.0)
        self.complete(sched, 0, 1e6)
        demoted = sched.admit_priority(0, Request(issue_ns=0.0), 0.0)
        assert in_budget > demoted


class TestPriorityUnit:
    def test_share_cap_is_a_fraction_of_queue_depth(self):
        sched = PrioritySched([0], T_COL, depth=32, share=0.75)
        assert sched._limit == 24
        # Degenerate depths still admit at least one entry.
        assert PrioritySched([0], T_COL, depth=1, share=0.5)._limit == 1
        assert PrioritySched([0], T_COL, depth=None)._limit is None

    def test_head_age_tracks_request_identity(self):
        """Age counts waiting at the crossbar, not time since issue —
        a backlogged stream's old issue stamps never read as starved."""
        sched = PrioritySched([0], T_COL, depth=32, age_bound_ns=100.0)
        old = Request(issue_ns=0.0)
        # First sighting at t=1000: age starts now, not at issue_ns.
        assert sched._head_age(0, old, 1000.0) == 0.0
        assert sched._head_age(0, old, 1050.0) == 50.0
        # A different head resets the clock.
        assert sched._head_age(0, Request(issue_ns=0.0, row=7), 1060.0) == 0.0

    def test_starved_head_bypasses_the_share_cap(self):
        sched = PrioritySched([0], T_COL, depth=4, share=0.5,
                              age_bound_ns=100.0)
        req = Request(issue_ns=0.0)
        for _ in range(2):
            sched.note_admit(0, req, 0.0)
        assert not sched.admit_ok(0, req, 0.0)  # at the 50% cap
        sched._head_age(0, req, 0.0)
        assert sched.admit_ok(0, req, 200.0)  # starved: cap waived

    def test_admission_clears_head_tracking(self):
        sched = PrioritySched([0], T_COL, depth=32, age_bound_ns=100.0)
        req = Request(issue_ns=0.0)
        sched._head_age(0, req, 0.0)
        sched.note_admit(0, req, 50.0)
        assert 0 not in sched._head


def run_priority_streams(streams, priorities, sched_params=(),
                         queue_depth=32, num_banks=2):
    mc = MemoryController(
        make_channel(num_banks=num_banks),
        McConfig(
            scheduler="priority",
            sched_params=sched_params,
            queue_depth=queue_depth,
        ),
    )
    return mc.serve_streams(streams, priorities)


class TestPriorityProperties:
    """The two scheduling guarantees the QoS narrative leans on,
    checked over hypothesis-random contention patterns."""

    @given(
        n_clients=st.integers(min_value=2, max_value=4),
        per_client=st.integers(min_value=3, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_robin_fairness_among_equal_priorities(
        self, n_clients, per_client, seed
    ):
        """Equal-priority clients saturating one bank are served in
        rotation: within every service-order prefix the per-client
        completion counts differ by at most one."""
        streams = [
            [
                Request(issue_ns=0.0, bank=0,
                        row=1 + (seed + c * 97 + i * 13) % 500,
                        client=c)
                for i in range(per_client)
            ]
            for c in range(n_clients)
        ]
        done = run_priority_streams(streams, [0] * n_clients)
        assert len(done) == n_clients * per_client
        owner = done.clients()
        by_start = sorted(range(len(done)), key=done.start_ns.__getitem__)
        counts = [0] * n_clients
        for i in by_start:
            counts[owner[done.ridx[i]]] += 1
            assert max(counts) - min(counts) <= 1, counts

    @given(
        victim_times=st.lists(
            st.floats(min_value=0.0, max_value=2000.0,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=8,
        ),
        period=st.floats(min_value=4.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_starvation_bound_under_high_priority_flood(
        self, victim_times, period, seed
    ):
        """An adversarial flood at the *highest* priority cannot hold a
        queued low-priority entry past the age bound: once an entry has
        waited ``age_bound_ns`` it outranks every class, waiting only
        behind *older* starved entries (the starved class is FCFS by
        enqueue time) — at most a bank queue's worth of service — plus
        a REF the engine defers over. The wait bound is a constant;
        without the age rank it would scale with the flood length
        (~20 us of service here)."""
        from repro.dram.timing import DDR5_PRAC_TIMING

        age_bound, depth = 2000.0, 32
        attacker = [
            Request(issue_ns=i * period, bank=0,
                    row=600 + (seed + i) % 300, client=0)
            for i in range(400)
        ]
        victims = [
            Request(issue_ns=t, bank=0, row=1 + (seed + i * 31) % 500,
                    client=1)
            for i, t in enumerate(sorted(victim_times))
        ]
        done = run_priority_streams(
            [attacker, victims], [10, 0],
            sched_params=(("age_bound_ns", age_bound),),
            queue_depth=depth,
        )
        drain = depth * DDR5_PRAC_TIMING.t_rc  # older starved entries
        slack = 1000.0  # in-flight command + a deferred REF
        owner = done.clients()
        for r, enqueue, start in zip(done.ridx, done.enqueue_ns,
                                     done.start_ns):
            if owner[r] != 1:
                continue
            queue_wait = start - enqueue
            assert queue_wait <= age_bound + drain + slack, queue_wait
