"""Struct-of-arrays serve path vs the retained scalar reference.

:meth:`MemoryController.serve_streams` dispatches eligible runs (any
number of crossbar clients under any scheduler kind, closed page,
bounded queues, one sub-channel, pristine channel) to a
struct-of-arrays serve loop; everything else stays on
:meth:`run_streams_reference`, the pinned scalar loop. These tests pin
the two halves of that design:

* **Equivalence** — the SoA loop produces completions, policy state,
  and engine state bit-identical to the reference, across policies,
  schedulers, queue depths, client mixes, the system-qos scenarios,
  and hypothesis-random request streams.
* **Idle jumps** — an idle gap enters the engine only when a REF, an
  external service or an ALERT window end falls due in it or an ALERT
  is latched, and each such gap serves as the reference does.
* **Dispatch** — eligible configurations actually take the SoA loop
  under every policy and every scheduler kind, and every ineligible
  shape (open page, unbounded queue, several sub-channels, danger
  tracking, postponed REFs, pre-driven channel) falls back to the
  reference, naming the first failing predicate in
  ``ServedBatch.path``, rather than producing a subtly wrong SoA run.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.controller import McConfig, MemoryController
from repro.mc.request import Request
from repro.mc.sched import SCHEDULERS, sched_display
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.sim.mc import (
    ClosedLoopConfig, McRunConfig, build_mc_channel, run_mc,
)
from repro.sweep.mc_spec import mc_preset
from repro.sweep.system_spec import system_preset
from repro.system.crossbar import client_requests
from repro.workloads.requests import McWorkload, generate_requests

#: A mix hot enough to drive MOAT past ATH=16 within a short window.
HOT_WORKLOAD = McWorkload(
    reads_per_trefi_per_bank=30.0, hot_fraction=0.6, hot_rows=2
)


def make_config(**overrides) -> McRunConfig:
    params = dict(ath=16, workload=HOT_WORKLOAD, banks=2, n_trefi=48)
    params.update(overrides)
    return McRunConfig(**params)


def make_requests(config: McRunConfig, client: int = 0):
    return generate_requests(
        config.workload,
        num_subchannels=config.subchannels,
        banks_per_subchannel=config.banks,
        n_trefi=config.n_trefi,
        rows_per_bank=config.rows_per_bank,
        seed=config.seed + client,
        trefi_ns=config.timing.t_refi,
        client=client,
    )


def build(config: ClosedLoopConfig):
    channel = build_mc_channel(config)
    return channel, MemoryController(channel, config)


def completion_key(batch):
    """Everything observable about a served batch, in service order
    (a batch without ``row_hit`` served no row-buffer hit)."""
    issue = batch.column("issue_ns")
    bank = batch.column("bank")
    row = batch.column("row")
    is_write = batch.column("is_write")
    owner = batch.clients()
    hits = batch.row_hit or [False] * len(batch)
    return [
        (issue[r], owner[r], bank[r], row[r], is_write[r],
         enqueue, start, complete, hit)
        for r, enqueue, start, complete, hit in zip(
            batch.ridx, batch.enqueue_ns, batch.start_ns,
            batch.complete_ns, hits,
        )
    ]


def run_reference(config, requests):
    return serve_reference(build(config), [list(requests)])


def run_fast(config, requests):
    return serve_soa(build(config), [list(requests)])


def serve_reference(built, streams, priorities=None):
    channel, controller = built
    batch = controller.run_streams_reference(streams, priorities)
    sub = channel.subchannels[0]
    return completion_key(batch), sub.stats(), channel.now


def serve_soa(built, streams, priorities=None):
    channel, controller = built
    batch = controller.serve_streams(streams, priorities)
    assert batch.path == "soa"
    sub = channel.subchannels[0]
    return completion_key(batch), sub.stats(), channel.now


def plain_channel(policy=NullPolicy, **sim_overrides):
    """A two-bank channel (null policy by default) with overridable
    engine options."""
    sim = dict(
        num_banks=2,
        rows_per_bank=1024,
        num_refresh_groups=1024,
        track_danger=False,
    )
    sim.update(sim_overrides)
    return ChannelSim(ChannelConfig(sim=SimConfig(**sim)), policy)


def scenario_streams(config):
    """A system scenario's client streams for channel 0."""
    return [
        client_requests(
            client, index,
            subchannels=config.subchannels,
            banks=config.banks,
            n_trefi=config.n_trefi,
            rows_per_bank=config.rows_per_bank,
            seed=config.seed,
            channel=0,
            timing=config.timing,
        )
        for index, client in enumerate(config.clients)
    ]


QOS_SCENARIOS = dict(system_preset("system-qos").scenarios)


class TestEquivalence:
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_every_policy_kind(self, kind):
        config = make_config(policy=PolicySpec(kind))
        requests = make_requests(config)
        assert run_fast(config, requests) == run_reference(config, requests)

    @pytest.mark.parametrize("scheduler", ["fcfs", "frfcfs"])
    @pytest.mark.parametrize("depth", [4, 32])
    def test_schedulers_and_depths(self, scheduler, depth):
        config = make_config(scheduler=scheduler, queue_depth=depth)
        requests = make_requests(config)
        assert run_fast(config, requests) == run_reference(config, requests)

    def test_abo_level_4(self):
        config = make_config(abo_level=4)
        requests = make_requests(config)
        assert run_fast(config, requests) == run_reference(config, requests)

    def test_writes_in_the_mix(self):
        workload = McWorkload(
            reads_per_trefi_per_bank=30.0, hot_fraction=0.5, hot_rows=4,
            write_fraction=0.3,
        )
        config = make_config(workload=workload)
        requests = make_requests(config)
        assert run_fast(config, requests) == run_reference(config, requests)

    @pytest.mark.parametrize("scenario", sorted(QOS_SCENARIOS))
    def test_system_qos_scenarios(self, scenario):
        """The noisy-neighbour QoS shapes (three clients, an attacker
        hammering bank 0 under every scheduler kind) at a short
        horizon."""
        config = dataclasses.replace(QOS_SCENARIOS[scenario], n_trefi=64)
        streams = scenario_streams(config)
        priorities = [client.priority for client in config.clients]
        assert serve_soa(
            build(config), streams, priorities
        ) == serve_reference(build(config), streams, priorities)

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_identical_requests_keep_their_indices(self, scheduler):
        """Requests equal in time, bank, row, write flag and client
        differ only by their index; both loops record the index each
        admission granted, so their batches agree entry by entry and
        serve every index exactly once."""
        requests = [
            Request(issue_ns=40.0 * (i // 6), bank=(i // 3) % 2, row=5)
            for i in range(48)
        ]
        config = make_config(scheduler=scheduler, queue_depth=2, ath=8)
        soa = build(config)[1].serve_streams([requests])
        reference = build(config)[1].run_streams_reference([requests])
        assert soa.path == "soa"
        assert sorted(reference.ridx) == list(range(len(requests)))
        for name in ("ridx", "enqueue_ns", "start_ns", "complete_ns"):
            assert getattr(soa, name) == getattr(reference, name), name


#: Random request tuples: arrival time, bank, row, is_write. Times are
#: floats on purpose — the serving loop mixes them with engine floats.
random_requests = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=15),
        st.booleans(),
    ),
    max_size=120,
)


class TestRandomStreams:
    @given(
        reqs=random_requests,
        scheduler=st.sampled_from(["fcfs", "frfcfs"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_streams_bit_identical(self, reqs, scheduler):
        requests = [
            Request(issue_ns=t, bank=bank, row=row, is_write=write)
            for t, bank, row, write in reqs
        ]
        config = make_config(scheduler=scheduler, queue_depth=4, ath=8)
        assert run_fast(config, requests) == run_reference(config, requests)


#: Scheduler kinds with default and tight parameters: a short age
#: bound, a small token bucket and a starved client 1, a low p99
#: budget over a short window, and a budget that only the most
#: backlogged clients exceed (mixed demotion states).
SCHED_SHAPES = [
    ("fcfs", ()),
    ("frfcfs", ()),
    ("priority", ()),
    ("priority", (("age_bound_ns", 500.0),)),
    ("bw-cap", ()),
    ("bw-cap", (("gbps", 0.5), ("burst", 2.0))),
    ("bw-cap", (("gbps", 0.5), ("burst", 2.0), ("gbps1", 0.1))),
    ("slo", ()),
    ("slo", (("budget_ns", 300.0), ("window", 16.0))),
    ("slo", (("budget_ns", 1500.0), ("window", 4.0))),
]
assert {kind for kind, _ in SCHED_SHAPES} == set(SCHEDULERS)


@st.composite
def client_streams(draw):
    """1-4 client streams with random priorities, each tagged with its
    stream index, expanded from a drawn seed so that dense examples are
    common. Arrivals sit on a 10 ns grid (ties are frequent) within a
    drawn span: 600 ns oversubscribes the two banks several times over
    (queues fill, entries starve, tails blow through a budget), 12 us
    spreads them over three tREFI with REFs and idle gaps between."""
    n_clients = draw(st.integers(min_value=1, max_value=4))
    counts = draw(st.lists(
        st.integers(min_value=0, max_value=60),
        min_size=n_clients, max_size=n_clients,
    ))
    slots = draw(st.sampled_from([60, 300, 1200]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    streams = [
        [
            Request(issue_ns=10.0 * rng.randrange(slots),
                    bank=rng.randrange(2), row=rng.randrange(16),
                    is_write=rng.random() < 0.3, client=client)
            for _ in range(count)
        ]
        for client, count in enumerate(counts)
    ]
    priorities = draw(st.lists(
        st.integers(min_value=0, max_value=2),
        min_size=n_clients, max_size=n_clients,
    ))
    return streams, priorities


class TestMultiClientStreams:
    @pytest.mark.parametrize(
        "kind, params", SCHED_SHAPES,
        ids=[sched_display(kind, params) for kind, params in SCHED_SHAPES],
    )
    @given(
        streams=client_streams(),
        depth=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_crossbars_bit_identical(
        self, kind, params, streams, depth
    ):
        streams, priorities = streams
        if any(name == "gbps1" for name, _ in params) and len(streams) < 2:
            params = tuple(p for p in params if p[0] != "gbps1")
        config = make_config(
            scheduler=kind, sched_params=params, queue_depth=depth, ath=8,
        )
        assert serve_soa(
            build(config), streams, priorities
        ) == serve_reference(build(config), streams, priorities)


#: Config overrides the SoA loop does not model, by the predicate
#: ``ServedBatch.path`` names.
INELIGIBLE_CONFIGS = {
    "open-page": {"row_policy": "open"},
    "unbounded-queue": {"queue_depth": None},
    "multi-subchannel": {"subchannels": 2},
}


class TestDispatch:
    @pytest.mark.parametrize("kind", sorted(POLICY_KINDS.names()))
    def test_eligible_config_takes_fast_path(self, kind):
        """Every policy is served by the SoA loop; a policy that fell
        back to the reference loop would still pass the equivalence
        suites, only slower."""
        config = make_config(policy=PolicySpec(kind))
        requests = make_requests(config)
        _, controller = build(config)
        batch = controller.serve_streams([list(requests)])
        assert batch.path == "soa"
        assert len(batch) == len(requests)

    @pytest.mark.parametrize("predicate", list(INELIGIBLE_CONFIGS))
    def test_ineligible_config_falls_back(self, predicate):
        config = make_config(**INELIGIBLE_CONFIGS[predicate])
        requests = make_requests(config)
        _, controller = build(config)
        batch = controller.serve_streams([list(requests)])
        assert batch.path == f"reference:{predicate}"
        # The fallback still returns the full batch.
        assert len(batch) == len(requests)

    @pytest.mark.parametrize(
        "predicate, channel_overrides",
        [("track-danger", {"track_danger": True})],
    )
    def test_engine_options_fall_back(self, predicate, channel_overrides):
        requests = [Request(issue_ns=7.0 * i, bank=i % 2, row=i % 5)
                    for i in range(50)]
        controller = MemoryController(
            plain_channel(**channel_overrides), McConfig()
        )
        batch = controller.serve_streams([list(requests)])
        assert batch.path == f"reference:{predicate}"
        reference = MemoryController(
            plain_channel(**channel_overrides), McConfig()
        ).run_streams_reference([list(requests)])
        assert completion_key(batch) == completion_key(reference)

    def test_postponed_refs_fall_back(self):
        channel = plain_channel()
        channel.subchannels[0].postpone_refs = True
        batch = MemoryController(channel, McConfig()).serve_streams(
            [[Request(issue_ns=0.0, row=1)]]
        )
        assert batch.path == "reference:postponed-refs"

    def test_multi_stream_takes_fast_path(self):
        config = make_config()
        streams = [make_requests(config, client) for client in range(2)]
        _, controller = build(config)
        batch = controller.serve_streams(streams)
        assert batch.path == "soa"
        assert len(batch) == sum(len(stream) for stream in streams)
        assert completion_key(batch) == completion_key(
            build(config)[1].run_streams_reference(streams)
        )

    def test_pre_driven_channel_falls_back(self):
        """Once the channel has served anything, the pristine-state
        mirrors the SoA loop relies on no longer hold — the dispatch
        must notice and stay on the reference."""
        config = make_config()
        requests = make_requests(config)
        channel, controller = build(config)
        channel.activate(row=3, bank=0, subchannel=0)
        batch = controller.serve_streams([list(requests)])
        assert batch.path == "reference:pre-driven-channel"
        assert len(batch) == len(requests)

    def test_recorder_counts_serve_paths(self):
        from repro.obs import TraceRecorder

        config = make_config()
        requests = make_requests(config)
        recorder = TraceRecorder()
        for depth in (32, None, 32):
            channel, controller = build(make_config(queue_depth=depth))
            channel.attach_recorder(recorder)
            controller.serve_streams([list(requests)])
        assert recorder.meta["serve_paths"] == {
            "soa": 2, "reference:unbounded-queue": 1,
        }

    def test_pre_driven_channel_matches_reference(self):
        """And the fallback result equals the reference run from the
        same pre-driven state."""
        config = make_config()
        requests = make_requests(config)

        def pre_driven():
            channel, controller = build(config)
            channel.activate(row=3, bank=0, subchannel=0)
            return channel, controller

        channel, controller = pre_driven()
        served = completion_key(controller.serve_streams([list(requests)]))
        channel2, controller2 = pre_driven()
        reference = completion_key(
            controller2.run_streams_reference([list(requests)])
        )
        assert served == reference


class TestClientTags:
    """A request's ``client`` tag must equal its stream index: the
    QoS kinds book occupancy under the stream index but read the tag
    at the pick, so a mis-tagged stream would silently corrupt
    per-client state."""

    @pytest.mark.parametrize("depth", [32, None], ids=["soa", "reference"])
    def test_mis_tagged_stream_is_rejected(self, depth):
        streams = [
            [Request(issue_ns=0.0, row=1, client=0)],
            [Request(issue_ns=5.0, row=2, client=0)],
        ]
        _, controller = build(make_config(queue_depth=depth))
        with pytest.raises(ValueError, match="tagged client 0 sits in "
                                             "stream 1"):
            controller.serve_streams(streams)

    def test_reference_rejects_mis_tagged_stream(self):
        _, controller = build(make_config(scheduler="priority"))
        with pytest.raises(ValueError, match="tagged client 3"):
            controller.run_streams_reference(
                [[Request(issue_ns=0.0, row=1, client=3)]]
            )


def floor_cycle_requests(eth: int):
    """Bank-0 bursts (arrival, row, ACTs) that raise MOAT's live floor
    and drop it again; the REF at ``k`` tREFI resets rows
    ``8(k-1)..8k-1``. Row 8 displaces row 16, so the floor rises with
    it; REF 2 resets row 8, whose re-activation drops its tracked copy
    to 2 and the floor to ETH; row 24 then climbs to ETH + 5, no higher
    than the floor row 8 held, and must displace it, so REF 5 latches
    row 24 into the CMA. Row 32 then passes ATH (an ALERT), and the
    later bursts run past the proactive pick at REF 10."""
    bursts = [
        (0.0, 16, eth + 4), (0.0, 8, eth + 8),
        (8300.0, 8, 2), (8300.0, 24, eth + 5),
        (20000.0, 32, 2 * eth + 1),
        (24000.0, 40, eth + 3), (40000.0, 16, 2),
    ]
    requests = [
        Request(issue_ns=t, bank=0, row=row)
        for t, row, acts in bursts for _ in range(acts)
    ]
    # Bank 1 stays under ATH, so its policy never calls an ALERT whose
    # RFMs would mitigate bank 0's rows.
    requests += [
        Request(issue_ns=100.0 * i, bank=1, row=3 + i % 5) for i in range(60)
    ]
    return sorted(requests, key=lambda request: request.issue_ns)


class TestPolicyInterest:
    """``_serve_soa`` calls the policy only for the ACTs it declares an
    interest in, reading MOAT's live floor per ACT; the reference loop
    calls it on every ACT. The two must agree on the mitigation
    sequence and MOAT's registers, not only on the served batch."""

    @staticmethod
    def serve(config, requests, soa: bool):
        channel, controller = build(config)
        sub = channel.subchannels[0]
        log = []
        sub.mitigation_listeners.append(lambda *event: log.append(event))
        if soa:
            batch = controller.serve_streams([requests])
            assert batch.path == "soa"
        else:
            batch = controller.run_streams_reference([requests])
        registers = [
            ([(entry.row, entry.count) for entry in policy.tracker],
             policy.cma)
            for policy in sub.policies
        ]
        return completion_key(batch), sub.stats(), log, registers

    @pytest.mark.parametrize("level", [1, 2])
    def test_moat_floor_rises_and_falls(self, level):
        eth = 8
        config = make_config(ath=2 * eth, eth=eth, abo_level=level)
        requests = floor_cycle_requests(eth)
        soa = self.serve(config, requests, soa=True)
        reference = self.serve(config, requests, soa=False)
        assert soa == reference
        assert reference[1]["alerts"] > 0
        assert any(not reactive for _, _, reactive, _ in reference[2])


def dealt(arrivals, n_clients):
    """Hand-built ``(issue_ns, bank, row)`` arrivals dealt round-robin
    to ``n_clients`` client streams (each stays in issue-time order)."""
    streams = [[] for _ in range(n_clients)]
    for index, (issue_ns, bank, row) in enumerate(arrivals):
        client = index % n_clients
        streams[client].append(
            Request(issue_ns=issue_ns, bank=bank, row=row, client=client))
    return streams


#: One idle gap per case holding what the case names, on a two-bank
#: MOAT channel (ATH 8, ETH 4, level 1) with the DDR5 timing: a REF
#: every 3900 ns lasting 410 ns, tRC 52 ns, a 180 ns ALERT window, one
#: 350 ns RFM. Each gap ends on an arrival that sees the difference
#: between entering the engine and jumping the clock alone.
IDLE_GAPS = {
    # The REF due at 3900 falls in the gap after the ACTs at 3000 and
    # 3052; the arrivals land inside its tRFC.
    "ref": (
        [(3000.0, 0, 1), (3010.0, 0, 1), (3950.0, 1, 2), (3960.0, 0, 3)],
        {},
    ),
    # Row 5 passes ATH on the ninth ACT: the ALERT asserts at 468, its
    # window ends at 648 in the gap, and the arrivals land in the RFM
    # stall (to 998).
    "window-end": (
        [(0.0, 0, 5)] * 9 + [(700.0, 1, 2), (705.0, 0, 3)],
        {},
    ),
    # Row 5 enters the tracker at count 5; the external service at
    # 1000 mitigates it in the gap.
    "external": (
        [(0.0, 0, 5)] * 6 + [(1100.0, 1, 2), (1110.0, 0, 6)],
        {"external_service_interval_ns": 1000.0},
    ),
    # Bank 1 tracks row 10 at ATH and holds row 9 at 7, under its
    # floor. Row 5 then raises an ALERT whose RFM mitigates rows 5 and
    # 10; row 9 enters the emptied tracker at 8 and passes ATH at 9,
    # two ACTs after that ALERT: the request stays latched through the
    # gap, since an ALERT needs four ACTs since the last, and asserts
    # on the second ACT after it.
    "alert-latched": (
        [(0.0, 1, 10)] * 8 + [(0.0, 1, 9)] * 7 + [(1000.0, 0, 5)] * 9
        + [(2100.0, 1, 9)] * 2 + [(2600.0, 0, 1), (2600.0, 0, 2)],
        {},
    ),
}


class TestIdleRule:
    """``_serve_soa`` jumps an idle gap by setting its own clock mirror
    only when no REF, external service or ALERT window end falls due by
    the jump's target and no ALERT is latched; ``advance_to`` would only
    set the clock then. Each case's gap holds one of those four states:
    the SoA loop must take that gap to the engine, and both loops must
    agree on the batch arrays, ``stats()`` and every mitigation,
    recorded with the engine clock at which it ran."""

    @staticmethod
    def serve(channel, streams, soa: bool):
        """Serve ``streams``; returns what both loops must agree on and
        the due events and latch each ``advance_to`` call found."""
        sub = channel.subchannels[0]
        abo = sub.abo
        mitigations = []
        sub.mitigation_listeners.append(
            lambda *event: mitigations.append(event + (sub.now,))
        )
        calls = []
        advance_to = channel.advance_to

        def recording(time):
            found = {
                "ref": sub._next_ref <= time,
                "external": sub._next_external <= time,
                "window-end": abo.window_end <= time,
                "alert-latched": abo.alert_pending,
            }
            calls.append((
                {name for name, held in found.items() if held},
                abo.acts_until_alert_allowed(),
            ))
            advance_to(time)

        channel.advance_to = recording
        controller = MemoryController(channel, McConfig(queue_depth=16))
        if soa:
            batch = controller.serve_streams(streams)
            assert batch.path == "soa"
        else:
            batch = controller.run_streams_reference(streams)
        return (completion_key(batch), sub.stats(), mitigations), calls

    @pytest.mark.parametrize("n_clients", [1, 3])
    @pytest.mark.parametrize("case", list(IDLE_GAPS))
    def test_gap_enters_the_engine_and_matches_reference(
        self, case, n_clients
    ):
        arrivals, sim = IDLE_GAPS[case]

        def channel():
            return plain_channel(lambda: MoatPolicy(ath=8, eth=4), **sim)

        soa, calls = self.serve(channel(), dealt(arrivals, n_clients),
                                soa=True)
        reference, _ = self.serve(channel(), dealt(arrivals, n_clients),
                                  soa=False)
        assert soa == reference
        # The gap reached the engine for its own state alone ...
        assert any(found == {case} for found, _ in calls)
        # ... and no gap did without a reason.
        assert all(found for found, _ in calls)
        if case == "alert-latched":
            assert any(found == {case} and owed > 0 for found, owed in calls)


class TestIdleEngineCalls:
    def test_mc_policy_moat_point(self, monkeypatch):
        """On mc-policy's MOAT point the SoA loop enters the engine on
        an idle jump only for a REF, an external service or an ALERT
        window end due by the jump's target, or for a latched ALERT.

        The count: an event-due call retires what is due
        (``advance_to`` drains every event at or before its target) and
        each REF, external service and ALERT window is retired once, so
        such calls number at most REFs + external services + ALERTs.
        Every other call holds a latched ALERT, and idle jumps are
        separated by ACTs (a jump lands on a request's arrival, which
        the loop then issues), so those calls number at most the ACTs
        issued under a latch. That is not a multiple of the ALERT
        count: a latch outside an ALERT window lasts at most the
        3 + level ACTs an ALERT needs, but one raised inside a window
        lasts to the window's end, and how many arrivals find the
        queue empty before then depends on the stream."""
        point = next(p for p in mc_preset("mc-policy").points()
                     if p.config.policy.kind == "moat")
        calls = []
        channels = set()
        advance_to = ChannelSim.advance_to

        def recording(channel, time):
            sub = channel.subchannels[0]
            abo = sub.abo
            due = (sub._next_ref <= time or sub._next_external <= time
                   or abo.window_end <= time)
            latched = abo.alert_pending
            events = (sub.refs, sub.external_services, abo.window_end)
            acts = sub.total_acts
            advance_to(channel, time)
            retired = (sub.refs, sub.external_services,
                       abo.window_end) != events
            calls.append((due, latched, retired, acts))
            channels.add(channel)

        monkeypatch.setattr(ChannelSim, "advance_to", recording)
        run_mc(point.config)
        (channel,) = channels
        sub = channel.subchannels[0]
        assert sub.alerts > 0
        assert all(due or latched for due, latched, _, _ in calls)
        due_calls = [retired for due, _, retired, _ in calls if due]
        assert all(due_calls)
        assert len(due_calls) <= sub.refs + sub.external_services + sub.alerts
        acts = [call[3] for call in calls]
        assert all(a < b for a, b in zip(acts, acts[1:]))


class TestResultPurity:
    def test_batch_fields_are_plain_python(self):
        """Batch fields are plain Python floats, ints and bools on both
        serving loops, which JSON artifact serialization downstream
        relies on."""
        for depth, path in ((32, "soa"), (None, "reference:unbounded-queue")):
            config = make_config(queue_depth=depth)
            _, controller = build(config)
            batch = controller.serve_streams([make_requests(config)])
            assert batch.path == path
            for values in (batch.enqueue_ns, batch.start_ns,
                           batch.complete_ns):
                assert all(type(v) is float for v in values)
            assert all(type(i) is int for i in batch.ridx)
            assert all(type(hit) is bool for hit in batch.row_hit or [])
