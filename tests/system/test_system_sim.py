"""System-level pins: the 1-client identity, sharded parallel ==
serial, per-client seeding discipline, and the noisy-neighbor
degradation the system family exists to measure."""

import dataclasses
import math
import re

import pytest

from repro.attacks.registry import AttackSpec
from repro.mc.controller import MemoryController
from repro.mc.sched import slo_budget_ns
from repro.sim.mc import (
    ClosedLoopConfig,
    McRunConfig,
    build_mc_channel,
    fold_sum,
    merge_stats,
    run_mc,
    traffic_fields,
)
from repro.sim.perf import RunConfig
from repro.sweep.mc_spec import MC_PRESETS, mc_preset
from repro.system import (
    ChannelShard,
    ClientSpec,
    SystemRunConfig,
    client_requests,
    run_system,
)
from repro.system.sim import ClientShardStats, client_shard_stats
from repro.workloads.requests import McWorkload

#: Small-but-busy scale shared by the pins below.
FAST = dict(banks=2, n_trefi=256)

TENANT = McWorkload(
    reads_per_trefi_per_bank=24.0, hot_fraction=0.3, hot_rows=8
)


def duo(**overrides):
    kwargs = dict(
        clients=(
            ClientSpec(name="t0", workload=TENANT),
            ClientSpec(name="t1", workload=TENANT, seed=1),
        ),
        **FAST,
    )
    kwargs.update(overrides)
    return SystemRunConfig(**kwargs)


class TestConfigValidation:
    def test_needs_a_client(self):
        with pytest.raises(ValueError, match="at least one client"):
            SystemRunConfig(clients=())

    def test_unique_names(self):
        with pytest.raises(ValueError, match="unique"):
            SystemRunConfig(
                clients=(ClientSpec(name="a"), ClientSpec(name="a"))
            )

    def test_channels_positive(self):
        with pytest.raises(ValueError, match="channels"):
            SystemRunConfig(channels=0)

    def test_eth_defaults_to_half_ath(self):
        assert SystemRunConfig(ath=48).eth_resolved == 24
        assert SystemRunConfig(ath=48, eth=40).eth_resolved == 40

    @pytest.mark.parametrize(
        "config", [McRunConfig, SystemRunConfig],
        ids=["McRunConfig", "SystemRunConfig"],
    )
    @pytest.mark.parametrize("bad,match", [
        (dict(row_policy="bogus"), "row policy"),
        (dict(queue_depth=0), "queue_depth"),
    ], ids=["row_policy", "queue_depth"])
    def test_controller_fields_fail_at_construction(self, config, bad, match):
        """A bad controller field fails when the run config is built,
        not once the run starts inside a sweep or shard worker."""
        with pytest.raises(ValueError, match=match):
            config(**bad)

    @pytest.mark.parametrize(
        "config", [RunConfig, McRunConfig, SystemRunConfig],
        ids=["RunConfig", "McRunConfig", "SystemRunConfig"],
    )
    def test_illegal_abo_level_fails_at_construction(self, config):
        """Every policy run config checks its ABO level when it is
        built; the closed-loop ones still run McConfig's checks."""
        with pytest.raises(ValueError, match=re.escape(
            "ABO level must be one of (1, 2, 4), got 3"
        )):
            config(abo_level=3)
        assert [config(abo_level=level).abo_level
                for level in (1, 2, 4)] == [1, 2, 4]


class TestIdentityPin:
    """One client, one channel: bit-identical to run_mc.

    Both sides share the config fields, the channel, the serve path
    and the summary, so the pin checks what they do not share: the
    system's stream seeding (client seed 0 on channel 0 collapses to
    the system seed).
    """

    def test_matches_run_mc(self):
        """Every mc preset point (both schedulers, open and closed
        page, unbounded queues, ABO levels 1/2/4, all seven policies,
        bursty arrivals) at 64 tREFI, under a nonzero seed so the
        system seed must reach the client stream."""
        points = [
            point
            for name in MC_PRESETS
            for point in mc_preset(name).with_overrides(
                n_trefi=64, seed=3
            ).points()
        ]
        assert len(points) == 29
        for point in points:
            config = point.config
            system_config = SystemRunConfig(
                clients=(ClientSpec(name="only", workload=config.workload),),
                **{
                    f.name: getattr(config, f.name)
                    for f in dataclasses.fields(ClosedLoopConfig)
                },
            )
            system = run_system(system_config)
            assert system.aggregate == run_mc(config), point.key

    def test_as_metrics_extends_run_mc(self):
        system = run_system(SystemRunConfig(
            clients=(ClientSpec(name="only", workload=TENANT),), **FAST
        ))
        mc = run_mc(McRunConfig(workload=TENANT, **FAST))
        got = system.as_metrics()
        assert got.pop("channels") == 1.0
        base = {k: v for k, v in got.items() if ":" not in k}
        assert base == mc.as_metrics()
        # And the single client's slice agrees with the aggregate.
        assert got["only:read_p99_ns"] == base["read_p99_ns"]
        assert got["only:requests"] == base["requests"]


class TestSharding:
    def test_parallel_equals_serial(self, tmp_path):
        config = duo(channels=3)
        serial = run_system(config, jobs=1)
        parallel = run_system(
            config, jobs=3, cache_dir=tmp_path / "cache"
        )
        assert parallel.aggregate == serial.aggregate
        assert [dataclasses.asdict(c) for c in parallel.clients] == [
            dataclasses.asdict(c) for c in serial.clients
        ]

    def test_cache_round_trip_is_bit_identical(self, tmp_path):
        config = duo(channels=2)
        cache = tmp_path / "cache"
        fresh = run_system(config, cache_dir=cache)
        assert fresh.cache_hits == 0
        cached = run_system(config, cache_dir=cache)
        assert cached.cache_hits == 2
        assert cached.aggregate == fresh.aggregate
        assert cached.clients == fresh.clients

    def test_channels_scale_throughput(self):
        one = run_system(duo(channels=1))
        four = run_system(duo(channels=4))
        # Four independent channels serve ~4x the requests at the same
        # horizon; per-config streams differ by channel reseeding, so
        # allow a generous tolerance.
        ratio = four.aggregate.requests / one.aggregate.requests
        assert 3.5 < ratio < 4.5
        assert four.aggregate.subchannels == 4 * one.aggregate.subchannels

    def test_shard_grid_is_one_cell_per_channel(self):
        config = duo(channels=3)
        shards = [ChannelShard(config=config, channel=channel)
                  for channel in range(3)]
        hashes = {s.config_hash() for s in shards}
        assert len(hashes) == 3  # the channel is part of the identity


class TestSeedingDiscipline:
    def test_client_stream_invariant_to_other_clients(self):
        """Client t0's metrics do not move when t1 changes its seed —
        stream synthesis must depend only on the client's own spec and
        the system seed, not on who else shares the crossbar.

        Null policy and unbounded queues keep the *service* side
        contention-free too, so the pin is exact, not statistical.
        """
        from repro.mitigations.registry import PolicySpec

        def t0_metrics(other_seed):
            config = duo(
                clients=(
                    ClientSpec(name="t0", workload=TENANT),
                    ClientSpec(name="t1", workload=TENANT,
                               seed=other_seed),
                ),
                policy=PolicySpec(kind="null"),
                queue_depth=None,
            )
            return run_system(config).client("t0")

        a = t0_metrics(1)
        b = t0_metrics(5)
        assert a.requests == b.requests
        assert a.reads == b.reads

    def test_same_seed_same_workload_coincide(self):
        """The documented footgun: two clients sharing workload and
        seed salt draw identical streams."""
        config = duo(
            clients=(
                ClientSpec(name="t0", workload=TENANT),
                ClientSpec(name="twin", workload=TENANT),
            ),
        )
        result = run_system(config)
        assert (result.client("t0").requests
                == result.client("twin").requests)

    def test_system_seed_moves_every_stream(self):
        a = run_system(duo(seed=0)).aggregate
        b = run_system(duo(seed=99)).aggregate
        assert a.requests != b.requests


class TestNoisyNeighbor:
    """The headline scenario: a PRAC hammer degrades its neighbors'
    tail latency through ALERT back-pressure."""

    ATTACKER = ClientSpec(
        name="attacker",
        attack=AttackSpec.of("kernel-single", total_acts=200_000),
    )

    def run_pair(self, with_attacker):
        victims = (
            ClientSpec(name="victim0", workload=TENANT),
            ClientSpec(name="victim1", workload=TENANT, seed=1),
        )
        clients = victims + ((self.ATTACKER,) if with_attacker else ())
        return run_system(SystemRunConfig(
            clients=clients, ath=32, n_trefi=512, banks=2,
        ))

    def test_attacker_degrades_victim_p99(self):
        quiet = self.run_pair(with_attacker=False)
        noisy = self.run_pair(with_attacker=True)
        assert noisy.aggregate.alerts > quiet.aggregate.alerts
        for victim in ("victim0", "victim1"):
            before = quiet.client(victim)
            after = noisy.client(victim)
            # The gated contrast: at least 2x p99 degradation (the
            # committed baseline records ~350x at this scale).
            assert after.read_p99_ns > 2.0 * before.read_p99_ns
            assert after.achieved_gbps < before.achieved_gbps

    def test_victim_metrics_stay_finite(self):
        noisy = self.run_pair(with_attacker=True)
        for metrics in noisy.clients:
            for key, value in metrics.as_metrics().items():
                assert math.isfinite(value), (metrics.name, key)


class TestShardStats:
    """The one run summary (``client_shard_stats``, behind ``run_mc``
    and every system shard) reads per-client statistics straight from
    the served batch's arrays; they must equal a client-by-client
    computation over the completions, float-summation order included,
    on the SoA loop and on both reference paths (open page, unbounded
    queue, whose batch the reference loop fills itself)."""

    @staticmethod
    def per_completion(batch, n_clients, budget):
        issue = batch.column("issue_ns")
        is_write = batch.column("is_write")
        owner = batch.clients()
        hits = batch.row_hit or [False] * len(batch)
        out = []
        for index in range(n_clients):
            mine = [i for i, r in enumerate(batch.ridx) if owner[r] == index]
            latencies = sorted(
                batch.complete_ns[i] - issue[batch.ridx[i]]
                for i in mine if not is_write[batch.ridx[i]]
            )
            queue_ns = 0.0
            for i in mine:
                queue_ns += batch.start_ns[i] - batch.enqueue_ns[i]
            out.append(ClientShardStats(
                requests=len(mine),
                reads=len(latencies),
                writes=len(mine) - len(latencies),
                row_hits=sum(1 for i in mine if hits[i]),
                queue_ns=queue_ns,
                read_latencies=latencies,
                slo_misses=(
                    sum(1 for lat in latencies if lat > budget)
                    if budget is not None else 0
                ),
            ))
        return out

    def test_float_sums_are_plain_left_folds(self):
        """Each ``+ 1.0`` rounds back to 1e16 in a left fold, while a
        compensated ``sum()`` (CPython 3.12+) returns 1e16 + 2. The
        summaries must give the fold's value on every interpreter, or
        the zero-tolerance baselines miss in the last digit."""
        waits = [1e16, 1.0, 1.0]
        assert fold_sum(waits) == 1e16
        assert fold_sum([]) == 0.0
        shards = [
            ClientShardStats(requests=1, reads=0, writes=1, row_hits=0,
                             queue_ns=wait, read_latencies=[])
            for wait in waits
        ]
        assert merge_stats(shards).queue_ns == 1e16
        reads = ClientShardStats(requests=3, reads=3, writes=0, row_hits=0,
                                 queue_ns=0.0,
                                 read_latencies=[0.1, 0.2, 0.3])
        # 0.1 + 0.2 + 0.3 folds to 0.6000000000000001 (fsum: 0.6).
        assert traffic_fields(reads, 1.0)["read_mean_ns"] == (
            0.6000000000000001 / 3
        )

    @pytest.mark.parametrize(
        "scheduler, row_policy, queue_depth, path",
        [
            pytest.param("slo", "closed", 32, "soa", id="slo-closed"),
            pytest.param("priority", "closed", 32, "soa",
                         id="priority-closed"),
            pytest.param("frfcfs", "open", 32, "reference:open-page",
                         id="frfcfs-open"),
            pytest.param("frfcfs", "closed", None,
                         "reference:unbounded-queue", id="frfcfs-unbounded"),
        ],
    )
    def test_batch_stats_equal_completion_stats(
        self, scheduler, row_policy, queue_depth, path
    ):
        writer = ClientSpec(
            name="writer",
            workload=McWorkload(reads_per_trefi_per_bank=30.0,
                                hot_fraction=0.5, write_fraction=0.3),
            seed=2,
        )
        config = duo(
            clients=duo().clients + (writer,),
            scheduler=scheduler,
            row_policy=row_policy,
            queue_depth=queue_depth,
            n_trefi=64,
        )
        streams = [
            client_requests(
                client, index, subchannels=config.subchannels,
                banks=config.banks, n_trefi=config.n_trefi,
                rows_per_bank=config.rows_per_bank, seed=config.seed,
                channel=0, timing=config.timing,
            )
            for index, client in enumerate(config.clients)
        ]
        controller = MemoryController(build_mc_channel(config), config)
        batch = controller.serve_streams(streams, [0, 0, 0])
        assert batch.path == path
        budget = slo_budget_ns(config.scheduler, config.sched_params)
        assert client_shard_stats(batch, 3, budget) == (
            self.per_completion(batch, 3, budget)
        )
