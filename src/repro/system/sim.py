"""Sharded multi-channel system simulation.

The fifth evaluation mode of the toolkit: where :func:`repro.sim.mc.
run_mc` drives one request stream into one channel, :class:`SystemSim`
drives N crossbar clients (each an independent
:class:`~repro.system.crossbar.ClientSpec`) into M channels and
reports *per-client* latency and bandwidth alongside the system
aggregate — the scale at which mitigation cost becomes what it really
is: interference between clients.

Decomposition:

* **Channel shard** — one :class:`~repro.sim.channel.ChannelSim` plus
  one :class:`~repro.mc.controller.MemoryController` serving every
  client's stream for that channel through
  :meth:`~repro.mc.controller.MemoryController.run_streams` (the
  crossbar). Channels share no state — DDR channels have independent
  buses, REF streams, and ALERT domains — so shards are perfectly
  parallel.
* **Sharding** — shards execute through the same
  :func:`~repro.sweep.runner.run_cached_grid` process pool the sweep
  families use: deterministic, cached by shard config hash, and
  bit-identical between parallel and serial execution (pinned the
  same way parallel == serial is pinned for sweeps).
* **Merge** — shards return per-client *sorted read-latency lists*
  (not pre-computed percentiles, which cannot merge), so system-level
  p50/p99 are exact over the union of all channels.

Correctness is pinned to the existing stack: a 1-client, 1-channel
:class:`SystemSim` is bit-identical to :func:`~repro.sim.mc.run_mc` —
same stream (the seeding collapses to the system seed), same
controller path (``run_streams`` with one stream degenerates to
``run``), same summary arithmetic (the merge of one shard reproduces
:func:`~repro.sim.mc._summarize` term for term).
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.mc.controller import MemoryController
from repro.mc.sched import (
    normalize_sched_params,
    sched_display,
    slo_budget_ns,
    validate_sched,
)
from repro.mitigations.registry import PolicySpec
from repro.sim.mc import LINE_BYTES, McResult, McRunConfig, _percentile, build_mc_channel
from repro.sweep.runner import wall_timer
from repro.system.crossbar import ClientSpec, client_requests, record_crossbar_grants
from repro.workloads.requests import McWorkload

#: Part of every system shard's and scenario's config hash; bump it
#: only to retire the committed baselines on a deliberate semantic
#: change (cached shards already recompute after any code change, see
#: ``repro.sweep.runner.source_fingerprint``).
SYSTEM_RESULT_VERSION = 1


@dataclass(frozen=True)
class SystemRunConfig:
    """Configuration of one multi-client, multi-channel system run.

    The policy/threshold/controller fields mirror
    :class:`~repro.sim.mc.McRunConfig` (every channel is defended and
    scheduled identically); the system axes are ``clients`` — the
    crossbar requestors sharing each channel — and ``channels``, the
    number of independent shards.
    """

    clients: Tuple[ClientSpec, ...] = (ClientSpec(name="client0"),)
    channels: int = 1
    ath: int = 64
    eth: Optional[int] = None  # defaults to ath // 2
    abo_level: int = 1
    policy: PolicySpec = field(default_factory=PolicySpec)
    trefi_per_mitigation: Optional[int] = None
    queue_depth: Optional[int] = 32
    #: Scheduling kind from the :mod:`repro.mc.sched` registry plus
    #: its ``(name, value)`` parameters — the QoS axis: every channel
    #: shard's crossbar and scheduler enforce the same policy.
    scheduler: str = "frfcfs"
    sched_params: Tuple[Tuple[str, object], ...] = ()
    row_policy: str = "closed"
    subchannels: int = 1
    banks: int = 4
    rows_per_bank: int = 64 * 1024
    n_trefi: int = 1024
    seed: int = 0
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        if not self.clients:
            raise ValueError("a system run needs at least one client")
        names = [client.name for client in self.clients]
        if len(set(names)) != len(names):
            raise ValueError(f"client names must be unique, got {names}")
        if self.channels < 1:
            raise ValueError("channels must be at least 1")
        # Fail fast here rather than inside a shard worker; the sched
        # registry owns the validation (shared with McConfig).
        object.__setattr__(
            self, "sched_params", normalize_sched_params(self.sched_params)
        )
        validate_sched(self.scheduler, self.sched_params)

    @property
    def eth_resolved(self) -> int:
        """ETH with the paper's ATH/2 default applied."""
        return self.ath // 2 if self.eth is None else self.eth

    def mc_run_config(self) -> McRunConfig:
        """The single-channel slice every shard is built from.

        The embedded workload is the first client's (the field is
        unused by channel construction — streams come from the
        crossbar — but keeping it meaningful preserves the 1-client
        configuration round-trip).
        """
        return McRunConfig(
            ath=self.ath,
            eth=self.eth,
            abo_level=self.abo_level,
            policy=self.policy,
            trefi_per_mitigation=self.trefi_per_mitigation,
            workload=self.clients[0].workload,
            queue_depth=self.queue_depth,
            scheduler=self.scheduler,
            sched_params=self.sched_params,
            row_policy=self.row_policy,
            subchannels=self.subchannels,
            banks=self.banks,
            rows_per_bank=self.rows_per_bank,
            n_trefi=self.n_trefi,
            seed=self.seed,
            timing=self.timing,
        )

    def display_name(self) -> str:
        """Stream-level identity of the client mix."""
        if len(self.clients) == 1:
            return self.clients[0].display_name()
        return "+".join(client.name for client in self.clients)

    def sched_display(self) -> str:
        """``kind`` or ``kind(k=v,...)`` — the artifact spelling."""
        return sched_display(self.scheduler, self.sched_params)


def system_config_payload(config: SystemRunConfig) -> Dict[str, object]:
    """Canonical hash payload of a system config.

    Same resolution conventions as the mc family: ETH and the
    proactive cadence hash at their resolved values, and dead knobs
    hash at their defaults — the burst knobs of Poisson client
    workloads, and the whole (ignored) workload of an attacker client
    — so equivalent spellings share one identity.
    """
    from repro.sweep.spec import _canonical

    payload = _canonical(config)
    payload["eth"] = config.eth_resolved
    payload["trefi_per_mitigation"] = (
        config.mc_run_config().trefi_per_mitigation_resolved
    )
    # The sched-params axis landed after the family's baselines were
    # committed; its empty spelling (the kind's defaults, what every
    # pre-existing shard ran) hashes out so they all survive.
    if not payload.get("sched_params"):
        payload.pop("sched_params", None)
    for client, data in zip(config.clients, payload["clients"]):
        if client.attack is not None:
            data["workload"] = _canonical(McWorkload())
        elif client.workload.process != "bursty":
            data["workload"]["burst_trefi"] = 8.0
            data["workload"]["idle_trefi"] = 8.0
    return payload


@dataclass(frozen=True)
class ChannelShard:
    """One grid cell of a system run: a single channel's simulation."""

    config: SystemRunConfig
    channel: int

    def config_hash(self) -> str:
        """Identity of this shard (cache key of the shard pool)."""
        payload = {
            "version": SYSTEM_RESULT_VERSION,
            "channel": self.channel,
            "config": system_config_payload(self.config),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ClientShardStats:
    """One client's raw outcome on one channel (mergeable)."""

    requests: int
    reads: int
    writes: int
    row_hits: int
    queue_ns: float
    #: Sorted read latencies — raw, so system percentiles merge exactly.
    read_latencies: List[float]
    #: Reads whose latency exceeded the run's SLO budget (0 unless the
    #: ``slo`` scheduler defined one) — the gating decisions of the
    #: policy, observable in artifacts.
    slo_misses: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "requests": self.requests,
            "reads": self.reads,
            "writes": self.writes,
            "row_hits": self.row_hits,
            "queue_ns": self.queue_ns,
            "read_latencies": self.read_latencies,
            "slo_misses": self.slo_misses,
        }

    @staticmethod
    def from_json(data: Dict[str, object]) -> "ClientShardStats":
        return ClientShardStats(
            requests=int(data["requests"]),
            reads=int(data["reads"]),
            writes=int(data["writes"]),
            row_hits=int(data["row_hits"]),
            queue_ns=float(data["queue_ns"]),
            read_latencies=[float(v) for v in data["read_latencies"]],
            # Tolerate shards cached before the counter existed.
            slo_misses=int(data.get("slo_misses", 0)),
        )


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
    mc_config = config.mc_run_config()
    channel = build_mc_channel(mc_config)
    controller = MemoryController(channel, mc_config.mc_config())
    if recorder is not None:
        channel.attach_recorder(
            recorder, base=shard.channel * config.subchannels
        )
        controller.recorder = recorder
    completed = controller.run_streams(
        streams, [client.priority for client in config.clients]
    )
    if recorder is not None:
        record_crossbar_grants(
            recorder, completed,
            sub_base=shard.channel * config.subchannels,
        )
    horizon = config.n_trefi * config.timing.t_refi
    budget = slo_budget_ns(config.scheduler, config.sched_params)
    per_client: List[ClientShardStats] = []
    for index in range(len(config.clients)):
        mine = [c for c in completed if c.request.client == index]
        latencies = sorted(
            c.latency_ns for c in mine if not c.request.is_write
        )
        per_client.append(
            ClientShardStats(
                requests=len(mine),
                reads=len(latencies),
                writes=len(mine) - len(latencies),
                row_hits=sum(1 for c in mine if c.row_hit),
                queue_ns=sum(c.queue_ns for c in mine),
                read_latencies=latencies,
                slo_misses=(
                    sum(1 for lat in latencies if lat > budget)
                    if budget is not None else 0
                ),
            )
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


def _merge_sorted(lists: List[List[float]]) -> List[float]:
    if len(lists) == 1:
        return lists[0]
    return list(heapq.merge(*lists))


def _assemble(
    config: SystemRunConfig,
    shards: List[ShardResult],
    wall_clock_s: float,
    jobs: int,
) -> SystemResult:
    elapsed_ns = max(shard.elapsed_ns for shard in shards)
    clients: List[ClientMetrics] = []
    client_latencies: List[List[float]] = []
    for index, spec in enumerate(config.clients):
        stats = [shard.per_client[index] for shard in shards]
        latencies = _merge_sorted([s.read_latencies for s in stats])
        client_latencies.append(latencies)
        requests = sum(s.requests for s in stats)
        reads = len(latencies)
        queue_ns = sum(s.queue_ns for s in stats)
        clients.append(
            ClientMetrics(
                name=spec.name,
                priority=spec.priority,
                requests=requests,
                reads=reads,
                writes=requests - reads,
                row_hits=sum(s.row_hits for s in stats),
                read_mean_ns=(
                    sum(latencies) / reads if reads else float("nan")
                ),
                read_p50_ns=_percentile(latencies, 0.50),
                read_p99_ns=_percentile(latencies, 0.99),
                read_max_ns=latencies[-1] if reads else float("nan"),
                avg_queue_ns=queue_ns / requests if requests else 0.0,
                avg_queue_occupancy=(
                    queue_ns / elapsed_ns if elapsed_ns else 0.0
                ),
                achieved_gbps=(
                    requests * LINE_BYTES / elapsed_ns if elapsed_ns else 0.0
                ),
                slo_misses=sum(s.slo_misses for s in stats),
            )
        )

    # System aggregate: the same arithmetic as run_mc's _summarize over
    # the union of every channel's completions (term-for-term identical
    # for one shard — the identity pin).
    latencies = _merge_sorted(client_latencies)
    requests = sum(c.requests for c in clients)
    reads = len(latencies)
    queue_ns = sum(
        sum(s.queue_ns for s in shard.per_client) for shard in shards
    )
    alerts = sum(shard.alerts for shard in shards)
    aggregate = McResult(
        workload=config.display_name(),
        policy=config.policy.display_name(),
        ath=config.ath,
        eth=config.eth_resolved,
        abo_level=config.abo_level,
        scheduler=config.sched_display(),
        row_policy=config.row_policy,
        queue_depth=config.queue_depth,
        subchannels=config.subchannels * config.channels,
        banks=config.banks,
        n_trefi=config.n_trefi,
        requests=requests,
        reads=reads,
        writes=requests - reads,
        row_hits=sum(c.row_hits for c in clients),
        alerts=alerts,
        total_acts=sum(shard.total_acts for shard in shards),
        elapsed_ns=elapsed_ns,
        stall_ns=alerts * config.abo_level * config.timing.t_rfm,
        read_mean_ns=(sum(latencies) / reads if reads else float("nan")),
        read_p50_ns=_percentile(latencies, 0.50),
        read_p99_ns=_percentile(latencies, 0.99),
        read_max_ns=latencies[-1] if reads else float("nan"),
        avg_queue_ns=queue_ns / requests if requests else 0.0,
        avg_queue_occupancy=queue_ns / elapsed_ns if elapsed_ns else 0.0,
    )
    return SystemResult(
        config=config,
        aggregate=aggregate,
        clients=clients,
        wall_clock_s=wall_clock_s,
        jobs=jobs,
        cache_hits=sum(1 for shard in shards if shard.cached),
    )


class SystemSim:
    """Multi-client, multi-channel simulation over sharded channels.

    Args:
        config: The system to simulate.

    Shards execute through :func:`~repro.sweep.runner.run_cached_grid`
    — serial in-process at ``jobs=1``, a process pool above, cached by
    shard hash when ``cache_dir`` is set — and merge into one
    :class:`SystemResult`. Sharded parallel execution equals serial
    bit for bit (shards are deterministic and independent).
    """

    def __init__(self, config: SystemRunConfig = SystemRunConfig()) -> None:
        self.config = config

    def shards(self) -> List[ChannelShard]:
        """The shard grid: one cell per channel."""
        return [
            ChannelShard(config=self.config, channel=channel)
            for channel in range(self.config.channels)
        ]

    def run(
        self,
        jobs: int = 1,
        cache_dir: Optional[Path] = None,
        progress=None,
        recorder=None,
    ) -> SystemResult:
        """Simulate every channel; parallel when ``jobs > 1``.

        A traced run (``recorder`` set) executes its shards serially
        in-process and bypasses the cache entirely: a cache hit would
        skip event emission, and recorders cannot cross the worker
        pool's pickle boundary. Metrics stay bit-identical; only the
        event stream is additional.
        """
        from repro.sweep.runner import run_cached_grid

        started = wall_timer()
        if recorder is not None:
            shards = [
                execute_system_shard(shard, recorder=recorder)
                for shard in self.shards()
            ]
            return _assemble(
                self.config,
                shards,
                wall_clock_s=wall_timer() - started,
                jobs=1,
            )
        cache_stats: Dict[str, object] = {}
        shards = run_cached_grid(
            self.shards(),
            execute_system_shard,
            ShardResult.from_json,
            jobs=jobs,
            cache_dir=cache_dir,
            progress=progress,
            stats=cache_stats,
        )
        result = _assemble(
            self.config,
            shards,
            wall_clock_s=wall_timer() - started,
            jobs=jobs,
        )
        result.cache_stats = cache_stats
        return result


def run_system(
    config: SystemRunConfig = SystemRunConfig(),
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress=None,
    recorder=None,
) -> SystemResult:
    """Run one system configuration (convenience over :class:`SystemSim`)."""
    return SystemSim(config).run(
        jobs=jobs, cache_dir=cache_dir, progress=progress,
        recorder=recorder,
    )
