"""Closed-loop memory-controller performance front-end.

The fourth evaluation mode of the toolkit: where :func:`repro.sim.perf.
run_workload` measures the open-loop ALERT *stall fraction* of a fixed
activation schedule, :func:`run_mc` drives a timed request stream
through the :class:`~repro.mc.controller.MemoryController` and reports
what a system actually experiences under ABO recovery — read-latency
percentiles, achieved bandwidth, and queue occupancy. The two agree by
construction where they overlap: an open-loop schedule converted to a
request stream and replayed at infinite queue depth issues the same
ACT sequence, raises the same ALERTs, and accumulates the same stall
time (pinned by ``TestPerfCrossCheck`` in
``tests/mc/test_run_mc.py``); the closed-loop mode then *adds* the
queueing axis the analytic substitution argument cannot express (see
DESIGN.md).

Metrics (:class:`McResult`):

* Read latency mean/p50/p99/max (ns) — arrival at the MC front-end to
  data completion, so ALERT recovery shows up as queueing delay.
* Achieved bandwidth (GB/s at 64-byte lines) and requests per tREFI.
* Average queue occupancy (Little's-law exact: summed queue residency
  over elapsed time).
* ALERTs per tREFI per sub-channel and the ALERT stall fraction —
  directly comparable to :class:`~repro.sim.perf.PerfResult`.

This module is also the closed-loop run core that
:mod:`repro.system.sim` shards over channels: one config
(:class:`ClosedLoopConfig`, the shared
:class:`~repro.sim.perf.PolicyRunConfig` fields plus the controller's
:class:`~repro.mc.controller.McConfig` and the channel geometry, so it
*is* the controller's config), one channel builder
(:func:`build_mc_channel`, over :func:`repro.sim.perf.
build_run_channel`), one serve path (:func:`serve_closed_loop`), and
one summary from a served batch to per-client statistics
(:func:`client_shard_stats`, :func:`merge_stats`) and results
(:func:`traffic_fields`, :func:`mc_result`). :class:`McRunConfig` adds
only the workload, and :class:`~repro.system.sim.SystemRunConfig`
only the clients and channels. :func:`run_mc` serves a synthetic
stream and :func:`run_mc_trace` a replayed trace, both through
:func:`run_mc_requests`.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.mc.controller import McConfig, MemoryController, ServedBatch
from repro.mc.request import Request, RequestStream
from repro.mc.sched import LINE_BYTES, sched_display
from repro.sim.channel import ChannelSim
from repro.sim.perf import PolicyRunConfig, build_run_channel
from repro.workloads.requests import McWorkload, generate_requests


@dataclass(frozen=True)
class ClosedLoopConfig(PolicyRunConfig, McConfig):
    """A policy run served through the memory controller: the shared
    policy fields, the controller's queueing and scheduling fields
    (validated by :class:`~repro.mc.controller.McConfig`, which this
    config is), and the channel geometry. The controller simulates
    every bank it generates traffic for, so no cross-bank service
    modelling is needed (scaling factors all collapse to 1)."""

    banks: int = 4
    rows_per_bank: int = 64 * 1024
    n_trefi: int = 1024

    def sched_display(self) -> str:
        """``kind`` or ``kind(k=v,...)`` — the artifact spelling."""
        return sched_display(self.scheduler, self.sched_params)


@dataclass(frozen=True)
class McRunConfig(ClosedLoopConfig):
    """Configuration of one closed-loop memory-controller run."""

    #: Arrival process driving the controller.
    workload: McWorkload = field(default_factory=McWorkload)


@dataclass
class McResult:
    """Metrics of one closed-loop run."""

    workload: str
    policy: str
    ath: int
    eth: int
    abo_level: int
    scheduler: str
    row_policy: str
    queue_depth: Optional[int]
    subchannels: int
    banks: int
    n_trefi: int
    requests: int
    reads: int
    writes: int
    row_hits: int
    alerts: int
    total_acts: int
    elapsed_ns: float
    stall_ns: float
    read_mean_ns: float
    read_p50_ns: float
    read_p99_ns: float
    read_max_ns: float
    #: Mean time-in-queue across all requests (enqueue to issue).
    avg_queue_ns: float
    #: Little's-law average number of queued requests.
    avg_queue_occupancy: float

    @property
    def alerts_per_trefi(self) -> float:
        """ALERTs per tREFI per sub-channel (Figure 11b metric)."""
        return self.alerts / self.n_trefi / self.subchannels

    @property
    def stall_fraction(self) -> float:
        """Fraction of sub-channel time lost to ALERT RFMs — the
        closed-loop analogue of :attr:`PerfResult.slowdown` (every
        bank simulated, so no partial-simulation scaling)."""
        if not self.elapsed_ns:
            return 0.0
        return self.stall_ns / self.subchannels / self.elapsed_ns

    @property
    def achieved_gbps(self) -> float:
        """Completed request bandwidth in GB/s (64-byte lines)."""
        return achieved_gbps(self.requests, self.elapsed_ns)

    @property
    def requests_per_trefi(self) -> float:
        """Completed requests per tREFI across the channel."""
        return self.requests / self.n_trefi

    @property
    def row_hit_rate(self) -> float:
        """Fraction of requests served from the open row buffer."""
        if not self.requests:
            return 0.0
        return self.row_hits / self.requests

    def as_metrics(self) -> Dict[str, float]:
        """Flat metric dict (sweep artifacts, ``summary.json``)."""
        return {
            "requests": float(self.requests),
            "reads": float(self.reads),
            "read_mean_ns": self.read_mean_ns,
            "read_p50_ns": self.read_p50_ns,
            "read_p99_ns": self.read_p99_ns,
            "read_max_ns": self.read_max_ns,
            "avg_queue_ns": self.avg_queue_ns,
            "avg_queue_occupancy": self.avg_queue_occupancy,
            "achieved_gbps": self.achieved_gbps,
            "requests_per_trefi": self.requests_per_trefi,
            "row_hit_rate": self.row_hit_rate,
            "alerts": float(self.alerts),
            "alerts_per_trefi": self.alerts_per_trefi,
            "stall_fraction": self.stall_fraction,
            "total_acts": float(self.total_acts),
        }


def build_mc_channel(config: ClosedLoopConfig) -> ChannelSim:
    """Channel simulation for a closed-loop run at the config's
    geometry (see :func:`~repro.sim.perf.build_run_channel`)."""
    return build_run_channel(
        config, config.subchannels, config.banks, config.rows_per_bank,
    )


def serve_closed_loop(
    channel: ChannelSim,
    config: ClosedLoopConfig,
    streams: Sequence[Sequence[Request]],
    priorities: Optional[Sequence[int]] = None,
    recorder=None,
    sub_base: int = 0,
) -> ServedBatch:
    """Serve client streams on ``channel`` through a fresh controller
    (every closed-loop run's serve path) configured by ``config``
    itself. A recorder is attached to the channel, its sub-channels
    numbered from ``sub_base``, and receives the events of the
    sub-channels and of the served batch; results are bit-identical
    either way."""
    if recorder is not None:
        channel.attach_recorder(recorder, base=sub_base)
    return MemoryController(channel, config).serve_streams(
        streams, priorities
    )


@dataclass
class ClientShardStats:
    """One client's raw outcome of one served batch (mergeable)."""

    requests: int
    reads: int
    writes: int
    row_hits: int
    queue_ns: float
    #: Sorted read latencies — raw, so merged percentiles are exact.
    read_latencies: List[float]
    #: Reads whose latency exceeded the run's SLO budget (0 unless the
    #: ``slo`` scheduler defined one) — the gating decisions of the
    #: policy, observable in artifacts.
    slo_misses: int = 0

    def to_json(self) -> Dict[str, object]:
        return asdict(self)

    @staticmethod
    def from_json(data: Dict[str, object]) -> "ClientShardStats":
        return ClientShardStats(
            requests=int(data["requests"]),
            reads=int(data["reads"]),
            writes=int(data["writes"]),
            row_hits=int(data["row_hits"]),
            queue_ns=float(data["queue_ns"]),
            read_latencies=[float(v) for v in data["read_latencies"]],
            slo_misses=int(data["slo_misses"]),
        )


def fold_sum(values: Iterable[float]) -> float:
    """Plain left-to-right float sum from ``0.0``.

    This is what ``sum()`` computes up to CPython 3.11. From 3.12 on
    ``sum()`` compensates over floats and can differ in the last
    digit, which would break the zero-tolerance baseline gates, so the
    summaries' float sums go through this fold on every interpreter.
    """
    return functools.reduce(operator.add, values, 0.0)


def client_shard_stats(
    batch: ServedBatch, n_clients: int, budget: Optional[float]
) -> List[ClientShardStats]:
    """Per-client outcome of one served batch, read from the batch
    arrays and the served streams' columns in completion order.

    One pass splits the waits and the read latencies by client. Each
    client's ``queue_ns`` is one :func:`fold_sum` over its own ``start
    - enqueue`` values in completion order, the float-summation order
    the per-completion code used.
    """
    issue = batch.column("issue_ns")
    is_write = batch.column("is_write")
    owner = batch.clients()
    queued: List[List[float]] = [[] for _ in range(n_clients)]
    latencies: List[List[float]] = [[] for _ in range(n_clients)]
    for r, wait, complete in zip(
        batch.ridx,
        map(operator.sub, batch.start_ns, batch.enqueue_ns),
        batch.complete_ns,
    ):
        client = owner[r]
        queued[client].append(wait)
        if not is_write[r]:
            latencies[client].append(complete - issue[r])
    row_hits = [0] * n_clients
    if batch.row_hit is not None:
        for r, hit in zip(batch.ridx, batch.row_hit):
            if hit:
                row_hits[owner[r]] += 1
    out: List[ClientShardStats] = []
    for client in range(n_clients):
        mine = sorted(latencies[client])
        out.append(
            ClientShardStats(
                requests=len(queued[client]),
                reads=len(mine),
                writes=len(queued[client]) - len(mine),
                row_hits=row_hits[client],
                queue_ns=fold_sum(queued[client]),
                read_latencies=mine,
                slo_misses=(
                    sum(1 for lat in mine if lat > budget)
                    if budget is not None else 0
                ),
            )
        )
    return out


def merge_stats(stats: Sequence[ClientShardStats]) -> ClientShardStats:
    """The union of several outcomes: counts and ``queue_ns`` summed in
    the given order, read latencies merged (still sorted). One outcome
    is returned as is."""
    if len(stats) == 1:
        return stats[0]
    latencies = list(heapq.merge(*(s.read_latencies for s in stats)))
    requests = sum(s.requests for s in stats)
    return ClientShardStats(
        requests=requests,
        reads=len(latencies),
        writes=requests - len(latencies),
        row_hits=sum(s.row_hits for s in stats),
        queue_ns=fold_sum(s.queue_ns for s in stats),
        read_latencies=latencies,
        slo_misses=sum(s.slo_misses for s in stats),
    )


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted data (NaN when empty)."""
    if not sorted_values:
        return float("nan")
    k = max(0, min(len(sorted_values) - 1,
                   math.ceil(q * len(sorted_values)) - 1))
    return sorted_values[k]


def traffic_fields(
    stats: ClientShardStats, elapsed_ns: float
) -> Dict[str, Any]:
    """The ten traffic fields :class:`McResult` and the system's
    per-client metrics share: counts, read latency mean/p50/p99/max,
    mean time in queue and Little's-law queue occupancy."""
    latencies = stats.read_latencies
    reads = stats.reads
    requests = stats.requests
    return {
        "requests": requests,
        "reads": reads,
        "writes": stats.writes,
        "row_hits": stats.row_hits,
        "read_mean_ns": (
            fold_sum(latencies) / reads if reads else float("nan")
        ),
        "read_p50_ns": _percentile(latencies, 0.50),
        "read_p99_ns": _percentile(latencies, 0.99),
        "read_max_ns": latencies[-1] if reads else float("nan"),
        "avg_queue_ns": stats.queue_ns / requests if requests else 0.0,
        "avg_queue_occupancy": (
            stats.queue_ns / elapsed_ns if elapsed_ns else 0.0
        ),
    }


def achieved_gbps(requests: int, elapsed_ns: float) -> float:
    """Completed request bandwidth in GB/s (one line per request)."""
    if not elapsed_ns:
        return 0.0
    return requests * LINE_BYTES / elapsed_ns


def mc_result(
    config: ClosedLoopConfig, workload: str, stats: ClientShardStats,
    alerts: int, total_acts: int, elapsed_ns: float, n_trefi: int,
    subchannels: int,
) -> McResult:
    """The :class:`McResult` of a served run — of :func:`run_mc`, of a
    trace replay, and of a system run's aggregate."""
    return McResult(
        workload=workload,
        policy=config.policy.display_name(),
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        scheduler=config.sched_display(),
        row_policy=config.row_policy,
        queue_depth=config.queue_depth,
        subchannels=subchannels,
        banks=config.banks,
        n_trefi=n_trefi,
        alerts=alerts,
        total_acts=total_acts,
        elapsed_ns=elapsed_ns,
        stall_ns=alerts * config.abo_level * config.timing.t_rfm,
        **traffic_fields(stats, elapsed_ns),
    )


@functools.lru_cache(maxsize=1)
def _request_stream(
    workload: McWorkload,
    subchannels: int,
    banks: int,
    n_trefi: int,
    rows_per_bank: int,
    seed: int,
    trefi_ns: float,
) -> RequestStream:
    """The request stream of one :func:`run_mc` key (workload,
    sub-channels, banks, n_trefi, rows_per_bank, seed, tREFI), kept for
    the next run with the same key: an mc preset varies the policy or
    the controller over one workload, so its points mostly share one
    stream. One entry only; a stream at full scale is several MB.
    Every serve path only reads it (a single stream reaches the serve
    loop as its own column lists, see
    :func:`~repro.mc.request.concat_column`), so reuse is exact."""
    return generate_requests(
        workload,
        num_subchannels=subchannels,
        banks_per_subchannel=banks,
        n_trefi=n_trefi,
        rows_per_bank=rows_per_bank,
        seed=seed,
        trefi_ns=trefi_ns,
    )


def run_mc(config: McRunConfig = McRunConfig(), recorder=None) -> McResult:
    """Serve the configured request stream.

    The stream is generated once per key and kept for the next run
    with the same key (:func:`_request_stream`), so the points of a
    preset that share a workload serve one stream, which no serve path
    writes.

    Args:
        config: Workload, policy, and controller parameters.
        recorder: Optional :class:`repro.obs.TraceRecorder`; when given,
            the engine and controller emit their event streams into it.
            Results are bit-identical either way.
    """
    requests = _request_stream(
        config.workload, config.subchannels, config.banks, config.n_trefi,
        config.rows_per_bank, config.seed, config.timing.t_refi,
    )
    return run_mc_requests(
        requests, config, workload_name=config.workload.display_name(),
        recorder=recorder,
    )


def run_mc_requests(
    requests: Sequence[Request],
    config: McRunConfig,
    workload_name: str = "requests",
    channel: Optional[ChannelSim] = None,
    recorder=None,
    trace=None,
) -> McResult:
    """Serve an explicit request stream (tests, converters, replays).

    Args:
        requests: The stream (a :class:`~repro.mc.request.
            RequestStream`, or a list of requests, converted once);
            timestamps in nanoseconds.
        config: Policy and controller parameters; the geometry fields
            must cover the stream's coordinates unless ``channel``
            overrides them.
        workload_name: Label recorded in the result.
        channel: Pre-built channel (default: :func:`build_mc_channel`).
        recorder: Optional :class:`repro.obs.TraceRecorder` attached to
            the channel.
        trace: The :class:`~repro.trace.AddressTrace` the stream was
            decoded from, if any: its duration replaces the
            ``n_trefi`` horizon, and its window the ``n_trefi`` the
            per-tREFI metrics normalize over.
    """
    if channel is None:
        channel = build_mc_channel(config)
    batch = serve_closed_loop(channel, config, [requests], recorder=recorder)
    (stats,) = client_shard_stats(batch, 1, None)
    t_refi = config.timing.t_refi
    if trace is None:
        n_trefi = config.n_trefi
        elapsed_ns = max(channel.now, n_trefi * t_refi)
    else:
        elapsed_ns = max(channel.now, trace.duration_ns)
        n_trefi = trace.window_trefi(elapsed_ns, t_refi)
    return mc_result(
        config, workload_name, stats, channel.alerts, channel.total_acts,
        elapsed_ns, n_trefi, config.subchannels,
    )


def run_mc_trace(
    trace,
    config: McRunConfig = McRunConfig(),
    mapping=None,
    recorder=None,
) -> McResult:
    """Replay a v2 address trace as a closed-loop request stream.

    The channel's geometry comes from the mapping (every decoded bank
    of every sub-channel is simulated), like
    :func:`repro.sim.perf.run_trace`; the controller's queueing and
    scheduling knobs come from ``config``. At infinite queue depth
    with the FCFS scheduler the ACT sequence is bit-identical to the
    open-loop replay.
    """
    from repro.sim.mapping import CoffeeLakeMapping
    from repro.workloads.requests import requests_from_trace

    if mapping is None:
        mapping = CoffeeLakeMapping()
    config = replace(
        config,
        subchannels=mapping.num_subchannels,
        banks=mapping.num_banks,
        rows_per_bank=1 << mapping.row_bits,
    )
    return run_mc_requests(
        requests_from_trace(trace, mapping), config,
        workload_name=str(trace.metadata.get("workload", "trace")),
        recorder=recorder, trace=trace,
    )
