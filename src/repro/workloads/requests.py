"""Closed-loop request-stream generators for the memory controller.

Where :mod:`repro.workloads.generator` plans open-loop activation
schedules (rows per tREFI interval, paced by the engine), this module
synthesizes *timed request streams* for the closed-loop controller
(:mod:`repro.mc`): every request carries its own arrival timestamp, so
queueing delay under REF/ALERT back-pressure is measurable.

An :class:`McWorkload` describes the arrival process declaratively
(hashable and picklable, like :class:`~repro.mitigations.registry.
PolicySpec`, so sweep points can carry it across process boundaries):

* ``poisson`` — memoryless arrivals at a fixed mean rate per bank.
* ``bursty`` — an ON/OFF modulated Poisson process (exponentially
  distributed burst and idle phases); the ON rate is scaled by the
  duty cycle so the long-run mean matches ``reads_per_trefi_per_bank``.

Row selection mixes a hot set (``hot_fraction`` of requests to
``hot_rows`` rows per bank — the Rowhammer-relevant reuse that drives
mitigation policies toward their thresholds) with a uniform cold tail.
Streams are drawn per (sub-channel, bank) with the same seeding
discipline as :func:`~repro.workloads.generator.generate_channel_
schedules` (``seed + sub * banks + bank``, sub-channel-major): adding
sub-channels never perturbs existing streams, and sub-channel 0's
streams (seeded ``seed + bank``) survive a bank-count change; higher
sub-channels re-seed when the bank count changes, exactly as the
schedule generator does.

Recorded traces and open-loop schedules convert to request streams via
:func:`requests_from_trace` (the one address decoder) and
:func:`requests_from_schedule` — the bridges the round-trip and
cross-check tests are built on.

Every producer returns a :class:`~repro.mc.request.RequestStream`:
parallel columns in stable issue-time order, filled straight from the
draws. No :class:`~repro.mc.request.Request` object is built on the
way; the controller's serve loop and the run summary read the columns.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass
from typing import List

from repro.mc.request import RequestStream
from repro.sim.mapping import CoffeeLakeMapping
from repro.trace import ActivationTrace

#: Processes implemented by :func:`generate_requests`.
ARRIVAL_PROCESSES = ("poisson", "bursty")


@dataclass(frozen=True)
class McWorkload:
    """Declarative description of a closed-loop request stream.

    Args:
        process: Arrival process (``"poisson"`` or ``"bursty"``).
        reads_per_trefi_per_bank: Long-run mean arrival rate, in
            requests per tREFI per bank (DDR5 caps a bank near
            ``tREFI / tRC`` = 75; sustained rates above ~67 saturate
            once REF overhead is paid).
        hot_fraction: Fraction of requests drawn from the hot set.
        hot_rows: Hot-set size per bank (rows ``0..hot_rows-1``).
        write_fraction: Fraction of requests that are writes.
        burst_trefi: Bursty only — mean ON-phase length in tREFI.
        idle_trefi: Bursty only — mean OFF-phase length in tREFI.
    """

    process: str = "poisson"
    reads_per_trefi_per_bank: float = 24.0
    hot_fraction: float = 0.0
    hot_rows: int = 8
    write_fraction: float = 0.0
    burst_trefi: float = 8.0
    idle_trefi: float = 8.0

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(
                f"unknown arrival process {self.process!r}; "
                f"known: {', '.join(ARRIVAL_PROCESSES)}"
            )
        for name in ("reads_per_trefi_per_bank", "burst_trefi",
                     "idle_trefi"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_rows < 1:
            raise ValueError("hot_rows must be at least 1")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must be in [0, 1]")

    def display_name(self) -> str:
        """Stable human-readable identity (sweep keys, CLI tables).

        Injective over behavior-distinct workloads: every parameter
        that shapes the request stream appears whenever it is off its
        default, so sweep-point keys (which deduplicate on this name)
        can never fold two different streams together, and every value
        is spelled exactly (see :func:`_spell`). ``hot_rows`` matters
        even at ``hot_fraction=0`` — it bounds the cold-row draw range;
        the burst knobs only exist for ``bursty``.
        """
        name = f"{self.process}-r{_spell(self.reads_per_trefi_per_bank)}"
        if self.hot_fraction:
            name += f"-hot{_spell(self.hot_fraction)}x{self.hot_rows}"
        elif self.hot_rows != 8:
            name += f"-hotrows{self.hot_rows}"
        if self.write_fraction:
            name += f"-w{_spell(self.write_fraction)}"
        if self.process == "bursty" and (
            self.burst_trefi != 8.0 or self.idle_trefi != 8.0
        ):
            name += (f"-b{_spell(self.burst_trefi)}"
                     f"i{_spell(self.idle_trefi)}")
        return name


def _spell(value: float) -> str:
    """``value`` as ``:g`` when that spelling reads back as exactly
    ``value`` (every preset's spelling), else as ``repr``: ``:g`` keeps
    6 significant digits, which would fold 0.3333333 and 1/3."""
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def generate_requests(
    workload: McWorkload,
    num_subchannels: int = 1,
    banks_per_subchannel: int = 4,
    n_trefi: int = 1024,
    rows_per_bank: int = 64 * 1024,
    seed: int = 0,
    trefi_ns: float = 3900.0,
    client: int = 0,
) -> RequestStream:
    """Synthesize one channel's request stream, merged in time order.

    One independent draw per (sub-channel, bank), seeded in
    sub-channel-major order (``seed + sub * banks + bank``): adding
    sub-channels leaves existing streams untouched, and sub-channel
    0's per-bank streams are independent of the bank count. Each draw
    goes straight into columns, concatenated in (sub-channel, bank)
    order; the stream's one stable sort on time is the merge, so ties
    on the timestamp resolve in (sub-channel, bank, per-bank order)
    order. The stream carries the crossbar ``client`` tag; the tag
    never influences the draws.
    """
    if num_subchannels < 1:
        raise ValueError("num_subchannels must be at least 1")
    if banks_per_subchannel < 1:
        raise ValueError("banks_per_subchannel must be at least 1")
    if n_trefi < 1:
        raise ValueError("n_trefi must be at least 1")
    if rows_per_bank <= workload.hot_rows:
        raise ValueError("rows_per_bank must exceed the hot set")
    horizon_ns = n_trefi * trefi_ns
    name_salt = zlib.crc32(workload.display_name().encode())
    issue: List[float] = []
    subs: List[int] = []
    banks: List[int] = []
    rows: List[int] = []
    writes: List[bool] = []
    for sub in range(num_subchannels):
        for bank in range(banks_per_subchannel):
            stream_seed = seed + sub * banks_per_subchannel + bank
            rng = random.Random(name_salt ^ (stream_seed * 0x9E3779B9))
            times = _arrivals(workload, rng, horizon_ns, trefi_ns)
            issue += times
            subs += [sub] * len(times)
            banks += [bank] * len(times)
            _draw_rows(workload, rng, len(times), rows_per_bank,
                       rows, writes)
    return RequestStream(issue, subs, banks, rows, writes, client)


def _arrivals(
    workload: McWorkload,
    rng: random.Random,
    horizon_ns: float,
    trefi_ns: float,
) -> List[float]:
    """Arrival times of one (sub-channel, bank) over ``[0, horizon_ns)``."""
    rate_ns = workload.reads_per_trefi_per_bank / trefi_ns
    if workload.process == "bursty":
        duty = workload.burst_trefi / (workload.burst_trefi + workload.idle_trefi)
        on_rate_ns = rate_ns / duty
        return _bursty_arrivals(
            rng, horizon_ns, on_rate_ns,
            workload.burst_trefi * trefi_ns, workload.idle_trefi * trefi_ns,
        )
    return _poisson_arrivals(rng, horizon_ns, rate_ns)


def _draw_rows(
    workload: McWorkload,
    rng: random.Random,
    count: int,
    rows_per_bank: int,
    rows: List[int],
    writes: List[bool],
) -> None:
    """Append the row and write flag of ``count`` arrivals.

    Drawn after every arrival time of the stream, in a fixed order per
    arrival (hot?, row, write?), so streams stay reproducible when
    workload knobs sit at their neutral values: a ``hot_fraction=0``
    stream draws the hot decision anyway.
    """
    draw = rng.random
    randrange = rng.randrange
    hot_fraction = workload.hot_fraction
    hot_rows = workload.hot_rows
    write_fraction = workload.write_fraction
    add_row = rows.append
    add_write = writes.append
    for _ in range(count):
        if draw() < hot_fraction:
            add_row(randrange(hot_rows))
        else:
            add_row(randrange(hot_rows, rows_per_bank))
        add_write(draw() < write_fraction)


def _poisson_arrivals(
    rng: random.Random, horizon_ns: float, rate_ns: float
) -> List[float]:
    out: List[float] = []
    gap = rng.expovariate
    t = gap(rate_ns)
    while t < horizon_ns:
        out.append(t)
        t += gap(rate_ns)
    return out


def _bursty_arrivals(
    rng: random.Random,
    horizon_ns: float,
    on_rate_ns: float,
    burst_ns: float,
    idle_ns: float,
) -> List[float]:
    """ON/OFF modulated Poisson arrivals (exponential phase lengths)."""
    out: List[float] = []
    t = 0.0
    while t < horizon_ns:
        on_end = t + rng.expovariate(1.0 / burst_ns)
        arrival = t + rng.expovariate(on_rate_ns)
        while arrival < on_end and arrival < horizon_ns:
            out.append(arrival)
            arrival += rng.expovariate(on_rate_ns)
        t = on_end + rng.expovariate(1.0 / idle_ns)
    return out


def requests_from_trace(trace, mapping=None) -> RequestStream:
    """Decode a recorded trace into a timed request stream.

    The one address decoder: every trace enters a channel in this form,
    replayed open-loop (:func:`repro.sim.perf.replay`) or served by the
    controller (:func:`repro.sim.mc.run_mc_trace`). A v2 address
    trace's events are decoded through the mapping (default:
    :class:`~repro.sim.mapping.CoffeeLakeMapping`); a v1 activation
    trace's ``(time, bank, row)`` events are already coordinates, of
    sub-channel 0. Serving the result through the controller at
    infinite queue depth with the FCFS scheduler reproduces the
    open-loop replay bit-for-bit.
    """
    issue: List[float] = []
    subs: List[int] = []
    banks: List[int] = []
    rows: List[int] = []
    if isinstance(trace, ActivationTrace):
        for time, bank, row in trace.events:
            issue.append(time)
            banks.append(bank)
            rows.append(row)
        subs = [0] * len(issue)
    else:
        if mapping is None:
            mapping = CoffeeLakeMapping()
        for time, addr in trace.events:
            decoded = mapping.decode(addr)
            issue.append(time)
            subs.append(decoded.subchannel)
            banks.append(decoded.bank)
            rows.append(decoded.row)
    return RequestStream(issue, subs, banks, rows, [False] * len(issue))


def requests_from_schedule(
    schedule,
    subchannel: int = 0,
    bank: int = 0,
    trefi_ns: float = 3900.0,
) -> RequestStream:
    """Convert an open-loop activation schedule into a request stream.

    Each interval's rows arrive together at the interval boundary —
    the arrival pattern the performance front-end's tREFI loop
    produces — so a closed-loop run at infinite queue depth issues the
    same ACT sequence as :func:`repro.sim.perf.run_workload` on the
    same schedule (the cross-check between the two front-ends).
    """
    issue: List[float] = []
    all_rows: List[int] = []
    for interval, rows in enumerate(schedule.per_trefi):
        issue += [interval * trefi_ns] * len(rows)
        all_rows += rows
    n = len(issue)
    return RequestStream(issue, [subchannel] * n, [bank] * n, all_rows,
                         [False] * n)
