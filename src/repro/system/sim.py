"""Sharded multi-channel system simulation.

The fifth evaluation mode of the toolkit: where :func:`repro.sim.mc.
run_mc` drives one request stream into one channel, :func:`run_system`
drives N crossbar clients (each an independent
:class:`~repro.system.crossbar.ClientSpec`) into M channels and
reports *per-client* latency and bandwidth alongside the system
aggregate — the scale at which mitigation cost becomes what it really
is: interference between clients.

Decomposition:

* **Channel shard** — one channel serving every client's stream
  through the closed-loop run core of :mod:`repro.sim.mc` (the same
  channel builder and serve path as ``run_mc``; the crossbar is
  :meth:`~repro.mc.controller.MemoryController.serve_streams`), with
  per-client statistics read straight from the served batch's arrays
  by :func:`~repro.sim.mc.client_shard_stats`. Channels share no
  state — DDR channels have independent buses, REF streams, and ALERT
  domains — so shards are perfectly parallel.
* **Sharding** — shards execute through the same
  :func:`~repro.sweep.runner.run_cached_grid` process pool the sweep
  families use: deterministic, cached by shard config hash, and
  bit-identical between parallel and serial execution (pinned the
  same way parallel == serial is pinned for sweeps).
* **Merge** — shards return per-client *sorted read-latency lists*
  (not pre-computed percentiles, which cannot merge), so system-level
  p50/p99 are exact over the union of all channels. Per-client
  metrics and the aggregate come from ``run_mc``'s summary.

:class:`SystemRunConfig` is a :class:`~repro.sim.mc.ClosedLoopConfig`
plus the clients and channels, so every shard builds its channel and
controller from it directly. A 1-client, 1-channel system run is
bit-identical to :func:`~repro.sim.mc.run_mc`; beyond the shared
code, the identity pin checks the stream seeding (client seed 0 on
channel 0 collapses to the system seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.mc.sched import slo_budget_ns
from repro.sim.mc import (
    ClientShardStats,
    ClosedLoopConfig,
    McResult,
    achieved_gbps,
    build_mc_channel,
    client_shard_stats,
    mc_result,
    merge_stats,
    serve_closed_loop,
    traffic_fields,
)
from repro.sweep.identity import (
    canonical, point_hash, strip_neutral, workload_payload,
)
from repro.sweep.runner import wall_timer
from repro.system.crossbar import ClientSpec, client_requests
from repro.workloads.requests import McWorkload

#: Additive axes mapped to their neutral value (see
#: :mod:`repro.sweep.identity`): the mc family's ``sched_params``, whose
#: empty spelling (the kind's defaults, what every shard ran before the
#: axis landed) hashes out so those baselines survive.
_NEUTRAL_AXES: Dict[str, object] = {"sched_params": []}


@dataclass(frozen=True)
class SystemRunConfig(ClosedLoopConfig):
    """Configuration of one multi-client, multi-channel system run.

    Every channel is defended and scheduled identically by the
    inherited policy, controller and geometry fields (the scheduler is
    the QoS axis: every shard's crossbar and scheduler enforce the same
    policy). The system axes are ``clients`` — the crossbar requestors
    sharing each channel — and ``channels``, the number of independent
    shards.
    """

    clients: Tuple[ClientSpec, ...] = (ClientSpec(name="client0"),)
    channels: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise ValueError("a system run needs at least one client")
        names = [client.name for client in self.clients]
        if len(set(names)) != len(names):
            raise ValueError(f"client names must be unique, got {names}")
        if self.channels < 1:
            raise ValueError("channels must be at least 1")

    def display_name(self) -> str:
        """Stream-level identity of the client mix."""
        if len(self.clients) == 1:
            return self.clients[0].display_name()
        return "+".join(client.name for client in self.clients)


def system_config_payload(config: SystemRunConfig) -> Dict[str, object]:
    """Canonical hash payload of a system config.

    The conventions of :mod:`repro.sweep.identity`: ETH and the
    proactive cadence hash at their resolved values, dead knobs at
    their defaults (a client workload's burst knobs, and the whole
    workload of an attacker client, which ignores it), and
    :data:`_NEUTRAL_AXES` hash out.
    """
    payload = canonical(config)
    payload["eth"] = config.eth_resolved
    payload["trefi_per_mitigation"] = config.trefi_per_mitigation_resolved
    for client, data in zip(config.clients, payload["clients"]):
        data["workload"] = workload_payload(
            McWorkload() if client.attack is not None else client.workload
        )
    return strip_neutral(payload, _NEUTRAL_AXES)


@dataclass(frozen=True)
class ChannelShard:
    """One grid cell of a system run: a single channel's simulation."""

    config: SystemRunConfig
    channel: int

    def config_hash(self) -> str:
        """Identity of this shard (cache key of the shard pool)."""
        return point_hash(channel=self.channel,
                          config=system_config_payload(self.config))


@dataclass
class ShardResult:
    """Outcome of one channel shard (raw per-client data + channel
    aggregates; JSON round-trips exactly, so cached shards are
    bit-identical to fresh ones)."""

    key: str
    config_hash: str
    channel: int
    alerts: int
    total_acts: int
    elapsed_ns: float
    per_client: List[ClientShardStats]
    wall_clock_s: float
    cached: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "config_hash": self.config_hash,
            "channel": self.channel,
            "alerts": self.alerts,
            "total_acts": self.total_acts,
            "elapsed_ns": self.elapsed_ns,
            "per_client": [stats.to_json() for stats in self.per_client],
            "wall_clock_s": self.wall_clock_s,
        }

    @staticmethod
    def from_json(
        data: Dict[str, object], cached: bool = False
    ) -> "ShardResult":
        return ShardResult(
            key=str(data["key"]),
            config_hash=str(data["config_hash"]),
            channel=int(data["channel"]),
            alerts=int(data["alerts"]),
            total_acts=int(data["total_acts"]),
            elapsed_ns=float(data["elapsed_ns"]),
            per_client=[
                ClientShardStats.from_json(stats)
                for stats in data["per_client"]
            ],
            wall_clock_s=float(data["wall_clock_s"]),
            cached=cached,
        )


def execute_system_shard(shard: ChannelShard, recorder=None) -> ShardResult:
    """Simulate one channel in the current process (worker entry).

    Args:
        shard: The channel cell to simulate.
        recorder: Optional :class:`repro.obs.TraceRecorder`. Traced
            shards run in-process only (recorders do not cross the
            worker-pool pickle boundary); each shard's sub-channels
            are offset by ``channel * subchannels`` so merged traces
            keep globally distinct tracks. Results are bit-identical
            with or without it.
    """
    started = wall_timer()
    config = shard.config
    streams = [
        client_requests(
            client,
            index,
            subchannels=config.subchannels,
            banks=config.banks,
            n_trefi=config.n_trefi,
            rows_per_bank=config.rows_per_bank,
            seed=config.seed,
            channel=shard.channel,
            timing=config.timing,
        )
        for index, client in enumerate(config.clients)
    ]
    channel = build_mc_channel(config)
    batch = serve_closed_loop(
        channel, config, streams,
        [client.priority for client in config.clients],
        recorder=recorder, sub_base=shard.channel * config.subchannels,
    )
    horizon = config.n_trefi * config.timing.t_refi
    per_client = client_shard_stats(
        batch, len(config.clients),
        slo_budget_ns(config.scheduler, config.sched_params),
    )
    return ShardResult(
        key=f"ch{shard.channel}",
        config_hash=shard.config_hash(),
        channel=shard.channel,
        alerts=channel.alerts,
        total_acts=channel.total_acts,
        elapsed_ns=max(channel.now, horizon),
        per_client=per_client,
        wall_clock_s=wall_timer() - started,
    )


@dataclass
class ClientMetrics:
    """One client's system-wide metrics (merged over every channel)."""

    name: str
    priority: int
    requests: int
    reads: int
    writes: int
    row_hits: int
    read_mean_ns: float
    read_p50_ns: float
    read_p99_ns: float
    read_max_ns: float
    avg_queue_ns: float
    avg_queue_occupancy: float
    achieved_gbps: float
    #: Reads over the run's SLO budget (0 unless the ``slo`` scheduler
    #: defined one).
    slo_misses: int = 0

    @property
    def row_hit_rate(self) -> float:
        if not self.requests:
            return 0.0
        return self.row_hits / self.requests

    def as_metrics(self) -> Dict[str, float]:
        """Flat metric dict (prefixed per client in system artifacts)."""
        return {
            "requests": float(self.requests),
            "reads": float(self.reads),
            "writes": float(self.writes),
            "read_mean_ns": self.read_mean_ns,
            "read_p50_ns": self.read_p50_ns,
            "read_p99_ns": self.read_p99_ns,
            "read_max_ns": self.read_max_ns,
            "avg_queue_ns": self.avg_queue_ns,
            "avg_queue_occupancy": self.avg_queue_occupancy,
            "achieved_gbps": self.achieved_gbps,
            "row_hit_rate": self.row_hit_rate,
            "slo_misses": float(self.slo_misses),
        }


@dataclass
class SystemResult:
    """Per-client metrics plus the system aggregate of one run.

    ``aggregate`` is a regular :class:`~repro.sim.mc.McResult` whose
    ``subchannels`` is the *system-wide* sub-channel count
    (``subchannels * channels``), so its derived stall fraction and
    ALERT rate remain per-sub-channel quantities comparable to the
    single-channel families. For a 1-client, 1-channel run it is
    bit-identical to what :func:`~repro.sim.mc.run_mc` returns.
    """

    config: SystemRunConfig
    aggregate: McResult
    clients: List[ClientMetrics]
    wall_clock_s: float = 0.0
    jobs: int = 1
    cache_hits: int = 0
    #: Shard-pool cache statistics (see
    #: :func:`repro.sweep.runner.run_cached_grid`); empty for traced
    #: runs, which bypass the cache.
    cache_stats: Dict[str, object] = field(default_factory=dict)

    def client(self, name: str) -> ClientMetrics:
        for metrics in self.clients:
            if metrics.name == name:
                return metrics
        known = ", ".join(m.name for m in self.clients)
        raise KeyError(f"unknown client {name!r}; known: {known}")

    def as_metrics(self) -> Dict[str, float]:
        """Aggregate metrics plus ``"{client}:{metric}"`` per client."""
        metrics = dict(self.aggregate.as_metrics())
        metrics["channels"] = float(self.config.channels)
        for client in self.clients:
            for key, value in client.as_metrics().items():
                metrics[f"{client.name}:{key}"] = value
        return metrics


def _assemble(
    config: SystemRunConfig,
    shards: List[ShardResult],
    wall_clock_s: float,
    jobs: int,
) -> SystemResult:
    elapsed_ns = max(shard.elapsed_ns for shard in shards)
    clients: List[ClientMetrics] = []
    for index, spec in enumerate(config.clients):
        stats = merge_stats([shard.per_client[index] for shard in shards])
        clients.append(
            ClientMetrics(
                name=spec.name,
                priority=spec.priority,
                achieved_gbps=achieved_gbps(stats.requests, elapsed_ns),
                slo_misses=stats.slo_misses,
                **traffic_fields(stats, elapsed_ns),
            )
        )
    # The aggregate is run_mc's summary over the union of every
    # channel's completions, merged shard by shard: the aggregate
    # queue time stays the shard-major sum of per-client sums.
    aggregate = mc_result(
        config,
        config.display_name(),
        merge_stats([merge_stats(shard.per_client) for shard in shards]),
        alerts=sum(shard.alerts for shard in shards),
        total_acts=sum(shard.total_acts for shard in shards),
        elapsed_ns=elapsed_ns,
        n_trefi=config.n_trefi,
        subchannels=config.subchannels * config.channels,
    )
    return SystemResult(
        config=config,
        aggregate=aggregate,
        clients=clients,
        wall_clock_s=wall_clock_s,
        jobs=jobs,
        cache_hits=sum(1 for shard in shards if shard.cached),
    )


def run_system(
    config: SystemRunConfig = SystemRunConfig(),
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress=None,
    recorder=None,
) -> SystemResult:
    """Simulate every channel of one system configuration.

    Shards (one :class:`ChannelShard` per channel) execute through
    :func:`~repro.sweep.runner.run_cached_grid` — serial in-process at
    ``jobs=1``, a process pool above, cached by shard hash when
    ``cache_dir`` is set — and merge into one :class:`SystemResult`.
    Sharded parallel execution equals serial bit for bit (shards are
    deterministic and independent).

    A traced run (``recorder`` set) executes its shards serially
    in-process and bypasses the cache entirely: a cache hit would skip
    event emission, and recorders cannot cross the worker pool's pickle
    boundary. Metrics stay bit-identical; only the event stream is
    additional.
    """
    from repro.sweep.runner import run_cached_grid

    started = wall_timer()
    shards = [
        ChannelShard(config=config, channel=channel)
        for channel in range(config.channels)
    ]
    if recorder is not None:
        results = [
            execute_system_shard(shard, recorder=recorder)
            for shard in shards
        ]
        return _assemble(
            config, results, wall_clock_s=wall_timer() - started, jobs=1,
        )
    cache_stats: Dict[str, object] = {}
    results = run_cached_grid(
        shards,
        execute_system_shard,
        ShardResult.from_json,
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        stats=cache_stats,
    )
    result = _assemble(
        config, results, wall_clock_s=wall_timer() - started, jobs=jobs,
    )
    result.cache_stats = cache_stats
    return result
