"""Columnar request streams against a frozen per-request reference.

The generators draw straight into :class:`RequestStream` columns and
merge the per-bank draws with one stable sort on time. The reference
below is the per-request algorithm they replaced, kept verbatim: one
frozen :class:`Request` per arrival, then a sort on
``(time, sub-channel, bank, index)`` tuples. Every stream the
generators produce must equal it column for column, ties included,
and the controller must reject a bad stream with the same message
whether it arrives as columns or as a list of requests — the message
the open-loop replay of the same stream, recorded as a trace, raises.
"""

import dataclasses
import random
import zlib

import pytest

from repro.attacks.registry import AttackSpec
from repro.dram.timing import DDR5_PRAC_TIMING
from repro.mc.controller import MemoryController
from repro.mc.request import Request, RequestStream
from repro.sim.mapping import AddressMapping
from repro.sim.mc import McRunConfig, build_mc_channel
from repro.sim.perf import replay
from repro.system.crossbar import (
    ATTACK_ROW_BASE,
    STREAMABLE_ATTACKS,
    attack_request_stream,
)
from repro.trace import AddressTrace
from repro.workloads import requests as requests_module
from repro.workloads.requests import McWorkload, generate_requests


# ----------------------------------------------------------------------
# The frozen per-request reference
# ----------------------------------------------------------------------


def reference_poisson(rng, horizon_ns, rate_ns):
    out = []
    t = rng.expovariate(rate_ns)
    while t < horizon_ns:
        out.append(t)
        t += rng.expovariate(rate_ns)
    return out


def reference_bursty(rng, horizon_ns, on_rate_ns, burst_ns, idle_ns):
    out = []
    t = 0.0
    while t < horizon_ns:
        on_end = t + rng.expovariate(1.0 / burst_ns)
        arrival = t + rng.expovariate(on_rate_ns)
        while arrival < on_end and arrival < horizon_ns:
            out.append(arrival)
            arrival += rng.expovariate(on_rate_ns)
        t = on_end + rng.expovariate(1.0 / idle_ns)
    return out


def reference_bank_stream(workload, rng, horizon_ns, trefi_ns, subchannel,
                          bank, rows_per_bank, client, grid=None):
    rate_ns = workload.reads_per_trefi_per_bank / trefi_ns
    if workload.process == "bursty":
        duty = workload.burst_trefi / (workload.burst_trefi + workload.idle_trefi)
        on_rate_ns = rate_ns / duty
        arrivals = reference_bursty(
            rng, horizon_ns, on_rate_ns,
            workload.burst_trefi * trefi_ns, workload.idle_trefi * trefi_ns,
        )
    else:
        arrivals = reference_poisson(rng, horizon_ns, rate_ns)
    if grid is not None:
        arrivals = snap(arrivals, grid)

    requests = []
    for t in arrivals:
        if rng.random() < workload.hot_fraction:
            row = rng.randrange(workload.hot_rows)
        else:
            row = rng.randrange(workload.hot_rows, rows_per_bank)
        is_write = rng.random() < workload.write_fraction
        requests.append(
            Request(issue_ns=t, subchannel=subchannel, bank=bank,
                    row=row, is_write=is_write, client=client)
        )
    return requests


def reference_generate(workload, num_subchannels=1, banks_per_subchannel=4,
                       n_trefi=1024, rows_per_bank=64 * 1024, seed=0,
                       trefi_ns=3900.0, client=0, grid=None):
    horizon_ns = n_trefi * trefi_ns
    name_salt = zlib.crc32(workload.display_name().encode())
    tagged = []
    for sub in range(num_subchannels):
        for bank in range(banks_per_subchannel):
            stream_seed = seed + sub * banks_per_subchannel + bank
            rng = random.Random(name_salt ^ (stream_seed * 0x9E3779B9))
            for k, req in enumerate(
                reference_bank_stream(workload, rng, horizon_ns, trefi_ns,
                                      sub, bank, rows_per_bank, client,
                                      grid)
            ):
                tagged.append((req.issue_ns, sub, bank, k, req))
    tagged.sort(key=lambda item: item[:4])
    return [item[4] for item in tagged]


def reference_attack_stream(attack, horizon_ns, timing, client=0):
    params = attack.param_dict()
    if attack.kind == "kernel-single":
        num_rows = 1
        budget = int(params.get("total_acts", 20_000))
    elif attack.kind == "kernel-multi":
        num_rows = int(params.get("rows", 5))
        budget = int(params.get("total_acts", 20_000))
    else:
        num_rows = int(params.get("num_aggressors", 32))
        budget = num_rows * int(params.get("acts_per_aggressor", 512))
    t_rc = timing.t_rc
    count = min(budget, max(0, int(horizon_ns / t_rc) + 1))
    requests = []
    for k in range(count):
        t = k * t_rc
        if t >= horizon_ns:
            break
        requests.append(
            Request(issue_ns=t, subchannel=0, bank=0,
                    row=ATTACK_ROW_BASE + (k % num_rows), client=client)
        )
    return requests


def snap(times, grid):
    """Arrival times rounded down to a coarse grid: many equal
    timestamps within a bank and across banks."""
    return [float(int(t // grid) * grid) for t in times]


def columns_of(requests):
    return (
        [r.issue_ns for r in requests],
        [r.subchannel for r in requests],
        [r.bank for r in requests],
        [r.row for r in requests],
        [r.is_write for r in requests],
    )


def assert_same_stream(stream, reference, client):
    assert isinstance(stream, RequestStream)
    assert stream.client == client
    assert all(r.client == client for r in reference)
    issue, subs, banks, rows, writes = columns_of(reference)
    assert stream.issue_ns == issue
    assert stream.subchannel == subs
    assert stream.bank == banks
    assert stream.row == rows
    assert stream.is_write == writes
    assert all(type(t) is float for t in stream.issue_ns)
    assert all(type(w) is bool for w in stream.is_write)
    assert list(stream) == reference


# ----------------------------------------------------------------------
# The generator against the reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("process", ["poisson", "bursty"])
@pytest.mark.parametrize("hot_fraction", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("write_fraction", [0.0, 0.3])
def test_columns_equal_frozen_reference(process, hot_fraction,
                                        write_fraction):
    workload = McWorkload(
        process=process, reads_per_trefi_per_bank=30.0,
        hot_fraction=hot_fraction, hot_rows=4,
        write_fraction=write_fraction, burst_trefi=2.0, idle_trefi=3.0,
    )
    for subchannels in (1, 2):
        for banks in (1, 2, 3, 4):
            for seed, client in ((0, 0), (7, 2), (123, 5)):
                kwargs = dict(
                    num_subchannels=subchannels,
                    banks_per_subchannel=banks, n_trefi=12,
                    rows_per_bank=4096, seed=seed, client=client,
                )
                assert_same_stream(
                    generate_requests(workload, **kwargs),
                    reference_generate(workload, **kwargs),
                    client,
                )


@pytest.mark.parametrize("process", ["poisson", "bursty"])
def test_ties_merge_in_subchannel_bank_index_order(monkeypatch, process):
    """Arrivals snapped to a coarse grid tie within a bank and across
    banks and sub-channels; the one stable sort must order them exactly
    as the reference's (time, sub-channel, bank, index) tuple sort."""
    grid = 2000.0
    real_arrivals = requests_module._arrivals
    monkeypatch.setattr(
        requests_module, "_arrivals",
        lambda *args: snap(real_arrivals(*args), grid),
    )
    workload = McWorkload(process=process, reads_per_trefi_per_bank=40.0,
                          hot_fraction=0.6, write_fraction=0.3)
    kwargs = dict(num_subchannels=2, banks_per_subchannel=3, n_trefi=8,
                  seed=4, client=1)
    stream = generate_requests(workload, **kwargs)
    reference = reference_generate(workload, grid=grid, **kwargs)
    times = stream.issue_ns
    assert len(set(times)) < len(times) / 4, "the grid must force ties"
    assert_same_stream(stream, reference, 1)


def test_constructor_sort_is_stable_on_ties():
    # Three per-bank runs concatenated in (sub, bank) order, with
    # equal times inside and across the runs.
    issue = [0.0, 5.0, 5.0, 9.0, 0.0, 5.0, 5.0, 1.0, 5.0]
    subs = [0, 0, 0, 0, 0, 0, 0, 1, 1]
    banks = [0, 0, 0, 0, 1, 1, 1, 0, 0]
    rows = list(range(9))
    stream = RequestStream(issue, subs, banks, rows, [False] * 9, client=3)
    expected = sorted(zip(issue, subs, banks, rows))
    assert list(zip(stream.issue_ns, stream.subchannel, stream.bank,
                    stream.row)) == expected


@pytest.mark.parametrize("kind", STREAMABLE_ATTACKS)
def test_attack_streams_equal_frozen_reference(kind):
    params = {
        "kernel-single": dict(total_acts=300),
        "kernel-multi": dict(rows=3, total_acts=10**9),
        "trespass": dict(num_aggressors=5, acts_per_aggressor=20),
    }[kind]
    attack = AttackSpec.of(kind, **params)
    for horizon in (1e4, 37 * DDR5_PRAC_TIMING.t_rc, 1e6):
        stream = attack_request_stream(
            attack, horizon_ns=horizon, timing=DDR5_PRAC_TIMING,
            rows_per_bank=64 * 1024, client=2,
        )
        reference = reference_attack_stream(
            attack, horizon, DDR5_PRAC_TIMING, client=2
        )
        assert reference, (kind, horizon)
        assert_same_stream(stream, reference, 2)


# ----------------------------------------------------------------------
# The stream type
# ----------------------------------------------------------------------


class TestRequestStream:
    def test_sequence_view(self):
        stream = RequestStream([2.0, 1.0], [0, 0], [1, 0], [7, 8],
                               [True, False], client=4)
        assert len(stream) == 2
        assert stream[0] == Request(1.0, 0, 0, 8, False, 4)
        assert stream[-1] == Request(2.0, 0, 1, 7, True, 4)
        assert stream[:1] == [Request(1.0, 0, 0, 8, False, 4)]
        assert list(stream) == [stream[0], stream[1]]
        assert stream == list(stream) and list(stream) == stream
        assert stream != RequestStream([1.0, 2.0], [0, 0], [0, 1],
                                       [8, 7], [False, True], client=0)

    def test_from_requests_sorts_stably_and_checks_tags(self):
        requests = [Request(issue_ns=5.0, row=1, client=1),
                    Request(issue_ns=0.0, row=2, client=1),
                    Request(issue_ns=5.0, row=3, client=1)]
        stream = RequestStream.from_requests(requests, client=1)
        assert stream.row == [2, 1, 3]
        assert stream == sorted(requests, key=lambda r: r.issue_ns)
        with pytest.raises(ValueError, match="tagged client 1 sits in "
                                             "stream 0"):
            RequestStream.from_requests(requests, client=0)

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            RequestStream([0.0, 1.0], [0], [0, 0], [0, 0], [False, False])


# ----------------------------------------------------------------------
# Validation: one message per fault, whatever the stream's form
# ----------------------------------------------------------------------

#: One faulty request per case (the rest of the stream is valid), and
#: the message it must raise.
FAULTS = {
    "subchannel": (dict(subchannel=1), "targets sub-channel 1"),
    "bank": (dict(bank=9), "targets bank 9"),
    "row": (dict(row=70_000), "targets row 70000"),
    "issue": (dict(issue_ns=-1.0), "issue_ns must be non-negative"),
    "tag": (dict(client=1), "tagged client 1 sits in stream 0"),
}


#: A mapping wider than the channel in every coordinate (2 sub-channels,
#: 16 banks, 2**17 rows), so it composes every faulty coordinate.
WIDE_MAPPING = AddressMapping(
    bank_functions=[[13, 18], [14, 19], [15, 20], [16, 21]],
    subchannel_bits=[6, 12],
    row_bits=17,
)


def faulty_requests(fault):
    requests = [Request(issue_ns=10.0 * i, bank=i % 2, row=i)
                for i in range(6)]
    requests[3] = dataclasses.replace(requests[3], **fault)
    return requests


@pytest.mark.parametrize("fault", list(FAULTS))
def test_bad_streams_raise_one_message(fault):
    changes, expected = FAULTS[fault]
    requests = faulty_requests(changes)
    # As columns, the stream carries one tag: the faulty one, if any.
    columns = RequestStream(*columns_of(requests),
                            client=changes.get("client", 0))
    messages = set()
    for depth, path in ((32, "soa"), (None, "reference:unbounded-queue")):
        config = McRunConfig(ath=16, banks=2, n_trefi=4, queue_depth=depth)
        for form in (requests, columns):
            for serve in ("serve_streams", "run_streams_reference"):
                controller = MemoryController(build_mc_channel(config), config)
                assert controller._serve_path() == path
                with pytest.raises(ValueError) as error:
                    getattr(controller, serve)([form])
                messages.add(str(error.value))
        if "client" not in changes:  # a replayed trace carries no tag
            trace = AddressTrace(events=[
                (r.issue_ns, WIDE_MAPPING.compose(r.subchannel, r.bank, r.row))
                for r in requests
            ])
            channel = build_mc_channel(config)
            with pytest.raises(ValueError) as error:
                replay(trace, channel, WIDE_MAPPING)
            messages.add(str(error.value))
            assert channel.total_acts == 0
    assert len(messages) == 1, messages
    assert expected in messages.pop()
