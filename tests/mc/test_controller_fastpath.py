"""Struct-of-arrays serve path vs the retained scalar reference.

:meth:`MemoryController.serve_streams` dispatches eligible runs (one
client, closed page, bounded queues, one sub-channel, pristine
channel) to a struct-of-arrays fast path; everything else stays on
:meth:`run_streams_reference`, the pinned scalar loop. These tests pin
the two halves of that design:

* **Equivalence** — the fast path produces completions, policy state,
  and engine state bit-identical to the reference, across policies,
  schedulers, queue depths, and hypothesis-random request streams.
* **Dispatch** — eligible configurations actually take the fast path
  under every policy, and every ineligible shape (multi-stream, open
  page, unbounded queue, pre-driven channel) falls back to the
  reference rather than producing a subtly wrong fast run.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.mc.controller import MemoryController
from repro.mc.request import Request
from repro.mitigations.registry import policy_kinds, PolicySpec
from repro.sim.mc import McRunConfig, build_mc_channel
from repro.workloads.requests import McWorkload, generate_requests

#: A mix hot enough to drive MOAT past ATH=16 within a short window.
HOT_WORKLOAD = McWorkload(
    reads_per_trefi_per_bank=30.0, hot_fraction=0.6, hot_rows=2
)


def make_config(**overrides) -> McRunConfig:
    params = dict(ath=16, workload=HOT_WORKLOAD, banks=2, n_trefi=48)
    params.update(overrides)
    return McRunConfig(**params)


def make_requests(config: McRunConfig):
    return generate_requests(
        config.workload,
        num_subchannels=config.subchannels,
        banks_per_subchannel=config.banks,
        n_trefi=config.n_trefi,
        rows_per_bank=config.rows_per_bank,
        seed=config.seed,
        trefi_ns=config.timing.t_refi,
    )


def build(config: McRunConfig):
    channel = build_mc_channel(config)
    return channel, MemoryController(channel, config.mc_config())


def completion_key(completed):
    """Everything observable about a served stream, in service order."""
    return [
        (
            c.request.issue_ns,
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
    channel, controller = build(config)
    completed = controller.run_streams_reference([list(requests)])
    sub = channel.subchannels[0]
    return completion_key(completed), sub.stats(), channel.now


def run_fast(config, requests):
    channel, controller = build(config)
    batch = controller.serve(list(requests))
    sub = channel.subchannels[0]
    return completion_key(batch.completions()), sub.stats(), channel.now


def spy_fast_path(monkeypatch):
    """Record the stream length of every ``_run_fast`` call."""
    calls = []
    original = MemoryController._run_fast

    def wrapper(self, stream):
        calls.append(len(stream))
        return original(self, stream)

    monkeypatch.setattr(MemoryController, "_run_fast", wrapper)
    return calls


class TestEquivalence:
    @pytest.mark.parametrize("kind", sorted(policy_kinds()))
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

    def test_batch_summaries_match_completions(self, monkeypatch):
        """The ServedBatch summary helpers (used by ``_summarize``)
        must replicate the reference's float-summation order exactly,
        on both the fast and the fallback path (an unbounded queue is
        ineligible, so its batch is built by ``from_completions``)."""
        calls = spy_fast_path(monkeypatch)
        requests = make_requests(make_config())
        for depth, fast in ((32, True), (None, False)):
            calls.clear()
            _, controller = build(make_config(queue_depth=depth))
            batch = controller.serve(list(requests))
            assert bool(calls) == fast
            completed = batch.completions()
            reads = [c for c in completed if not c.request.is_write]
            assert batch.read_latencies_sorted() == sorted(
                c.latency_ns for c in reads
            )
            assert batch.queue_ns_total() == sum(
                c.queue_ns for c in completed
            )
            assert batch.row_hit_count() == sum(
                1 for c in completed if c.row_hit
            )
            assert len(batch) == len(completed)


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


class TestDispatch:
    @pytest.mark.parametrize("kind", sorted(policy_kinds()))
    def test_eligible_config_takes_fast_path(self, monkeypatch, kind):
        """Every policy is served by the fast path; a policy that fell
        back to the reference loop would still pass the equivalence
        suites, only slower."""
        calls = spy_fast_path(monkeypatch)
        config = make_config(policy=PolicySpec(kind))
        requests = make_requests(config)
        _, controller = build(config)
        controller.serve(list(requests))
        assert calls == [len(requests)]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"row_policy": "open"},
            {"queue_depth": None},
        ],
        ids=["open-page", "unbounded-queue"],
    )
    def test_ineligible_config_falls_back(self, monkeypatch, overrides):
        calls = spy_fast_path(monkeypatch)
        config = make_config(**overrides)
        requests = make_requests(config)
        _, controller = build(config)
        batch = controller.serve(list(requests))
        assert not calls
        # The fallback still returns the full batch.
        assert len(batch) == len(requests)

    def test_multi_stream_falls_back(self, monkeypatch):
        calls = spy_fast_path(monkeypatch)
        config = make_config()
        requests = make_requests(config)
        _, controller = build(config)
        half = len(requests) // 2
        batch = controller.serve_streams(
            [list(requests[:half]), list(requests[half:])]
        )
        assert not calls
        assert len(batch) == len(requests)

    def test_pre_driven_channel_falls_back(self, monkeypatch):
        """Once the channel has served anything, the pristine-state
        mirrors the fast path relies on no longer hold — the dispatch
        must notice and stay on the reference."""
        calls = spy_fast_path(monkeypatch)
        config = make_config()
        requests = make_requests(config)
        channel, controller = build(config)
        channel.activate(row=3, bank=0, subchannel=0)
        batch = controller.serve(list(requests))
        assert not calls
        assert len(batch) == len(requests)

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
