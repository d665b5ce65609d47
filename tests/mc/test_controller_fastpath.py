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
* **Dispatch** — eligible configurations actually take the SoA loop
  under every policy and every scheduler kind, and every ineligible
  shape (open page, unbounded queue, several sub-channels, sparse
  counters, danger tracking, postponed REFs, pre-driven channel) falls
  back to the reference, naming the first failing predicate in
  ``ServedBatch.path``, rather than producing a subtly wrong SoA run.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.controller import McConfig, MemoryController
from repro.mc.request import Request
from repro.mc.sched import SCHEDULERS, sched_display
from repro.mitigations.null import NullPolicy
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import SimConfig
from repro.sim.mc import McRunConfig, build_mc_channel
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


def build(config: McRunConfig):
    channel = build_mc_channel(config)
    return channel, MemoryController(channel, config.mc_config())


def completion_key(completed):
    """Everything observable about a served stream, in service order."""
    return [
        (
            c.request.issue_ns,
            c.request.client,
            c.request.bank,
            c.request.row,
            c.request.is_write,
            c.enqueue_ns,
            c.start_ns,
            c.complete_ns,
            c.row_hit,
        )
        for c in completed
    ]


def run_reference(config, requests):
    return serve_reference(build(config), [list(requests)])


def run_fast(config, requests):
    return serve_soa(build(config), [list(requests)])


def serve_reference(built, streams, priorities=None):
    channel, controller = built
    completed = controller.run_streams_reference(streams, priorities)
    sub = channel.subchannels[0]
    return completion_key(completed), sub.stats(), channel.now


def serve_soa(built, streams, priorities=None):
    channel, controller = built
    batch = controller.serve_streams(streams, priorities)
    assert batch.path == "soa"
    sub = channel.subchannels[0]
    return completion_key(batch.completions()), sub.stats(), channel.now


def plain_channel(**sim_overrides):
    """A two-bank null-policy channel with overridable engine options."""
    sim = dict(
        num_banks=2,
        rows_per_bank=1024,
        num_refresh_groups=1024,
        track_danger=False,
        dense_counters=True,
    )
    sim.update(sim_overrides)
    return ChannelSim(ChannelConfig(sim=SimConfig(**sim)), NullPolicy)


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
        mc_config = config.mc_run_config()
        assert serve_soa(
            build(mc_config), streams, priorities
        ) == serve_reference(build(mc_config), streams, priorities)


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
        batch = controller.serve(list(requests))
        assert batch.path == "soa"
        assert len(batch) == len(requests)

    @pytest.mark.parametrize("predicate", list(INELIGIBLE_CONFIGS))
    def test_ineligible_config_falls_back(self, predicate):
        config = make_config(**INELIGIBLE_CONFIGS[predicate])
        requests = make_requests(config)
        _, controller = build(config)
        batch = controller.serve(list(requests))
        assert batch.path == f"reference:{predicate}"
        # The fallback still returns the full batch.
        assert len(batch) == len(requests)

    @pytest.mark.parametrize(
        "predicate, channel_overrides",
        [
            ("sparse-counters", {"dense_counters": False}),
            ("track-danger", {"track_danger": True}),
        ],
    )
    def test_engine_options_fall_back(self, predicate, channel_overrides):
        requests = [Request(issue_ns=7.0 * i, bank=i % 2, row=i % 5)
                    for i in range(50)]
        controller = MemoryController(
            plain_channel(**channel_overrides), McConfig()
        )
        batch = controller.serve(list(requests))
        assert batch.path == f"reference:{predicate}"
        reference = MemoryController(
            plain_channel(**channel_overrides), McConfig()
        ).run_streams_reference([list(requests)])
        assert completion_key(batch.completions()) == completion_key(
            reference
        )

    def test_postponed_refs_fall_back(self):
        channel = plain_channel()
        channel.subchannels[0].postpone_refs = True
        batch = MemoryController(channel, McConfig()).serve(
            [Request(issue_ns=0.0, row=1)]
        )
        assert batch.path == "reference:postponed-refs"

    def test_multi_stream_takes_fast_path(self):
        config = make_config()
        streams = [make_requests(config, client) for client in range(2)]
        _, controller = build(config)
        batch = controller.serve_streams(streams)
        assert batch.path == "soa"
        assert len(batch) == sum(len(stream) for stream in streams)
        assert completion_key(batch.completions()) == completion_key(
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
        batch = controller.serve(list(requests))
        assert batch.path == "reference:pre-driven-channel"
        assert len(batch) == len(requests)

    def test_recorder_counts_serve_paths(self):
        from repro.obs import TraceRecorder

        config = make_config()
        requests = make_requests(config)
        recorder = TraceRecorder()
        for depth in (32, None, 32):
            _, controller = build(make_config(queue_depth=depth))
            controller.recorder = recorder
            controller.serve(list(requests))
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
        served = completion_key(controller.serve(list(requests)).completions())
        channel2, controller2 = pre_driven()
        reference = completion_key(
            controller2.run_streams_reference([list(requests)])
        )
        assert served == reference

    def test_run_streams_is_serve_streams(self):
        """The legacy list-of-completions API and the batch API stay
        one implementation."""
        config = make_config()
        requests = make_requests(config)
        _, controller = build(config)
        completed = controller.run_streams([list(requests)])
        _, controller2 = build(config)
        batch = controller2.serve_streams([list(requests)])
        assert completion_key(completed) == completion_key(
            batch.completions()
        )


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


class TestResultPurity:
    def test_batch_fields_are_plain_python(self):
        """Batch fields are plain Python floats and ints, which JSON
        artifact serialization downstream relies on."""
        config = make_config()
        _, controller = build(config)
        batch = controller.serve(make_requests(config))
        for values in (batch.enqueue_ns, batch.start_ns, batch.complete_ns):
            assert all(type(v) is float for v in values)
        assert all(type(i) is int for i in batch.ridx)
        completed = batch.completions()
        assert all(
            type(c.start_ns) is float and type(c.complete_ns) is float
            for c in completed
        )
