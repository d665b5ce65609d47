"""Integration tests of the closed-loop front-end (:mod:`repro.sim.mc`):
metric sanity, the ABO-level latency staircase, and the cross-check
against the open-loop stall-fraction front-end."""

import dataclasses
import math

import pytest

import repro.sim.mc as sim_mc
from repro.dram.timing import DDR5_PRAC_TIMING
from repro.mc.controller import MemoryController
from repro.mitigations.registry import PolicySpec
from repro.obs import TraceRecorder
from repro.sim.mc import McRunConfig, run_mc, run_mc_requests
from repro.sim.perf import RunConfig, run_workload
from repro.sweep.mc_spec import HAMMER_WORKLOAD, mc_preset
from repro.workloads.generator import generate_schedule
from repro.workloads.profiles import profile_by_name
from repro.workloads.requests import (
    McWorkload,
    generate_requests,
    requests_from_schedule,
)

QUIET = McWorkload(reads_per_trefi_per_bank=16.0)


class TestMetricSanity:
    def test_moat_smoke(self):
        result = run_mc(McRunConfig(workload=QUIET, banks=2, n_trefi=256))
        assert result.requests > 0
        assert result.reads + result.writes == result.requests
        assert result.read_p50_ns <= result.read_p99_ns <= result.read_max_ns
        assert result.read_mean_ns > 0
        assert result.achieved_gbps > 0
        assert result.avg_queue_occupancy >= 0
        assert result.total_acts == result.requests  # closed page: 1 ACT each
        assert result.policy == "moat"

    def test_null_baseline_never_alerts(self):
        result = run_mc(
            McRunConfig(policy=PolicySpec("null"), workload=HAMMER_WORKLOAD,
                        banks=2, n_trefi=256)
        )
        assert result.alerts == 0
        assert result.stall_fraction == 0.0
        assert result.read_p99_ns > 0

    def test_hammer_mix_raises_alerts_under_moat(self):
        result = run_mc(
            McRunConfig(ath=32, workload=HAMMER_WORKLOAD, banks=2,
                        n_trefi=256)
        )
        assert result.alerts > 0
        assert result.alerts_per_trefi > 0
        assert result.stall_fraction > 0

    def test_write_fraction_partitions_requests(self):
        workload = McWorkload(reads_per_trefi_per_bank=16.0,
                              write_fraction=0.3)
        result = run_mc(McRunConfig(workload=workload, banks=2, n_trefi=128))
        assert result.writes > 0
        assert result.reads > 0

    def test_open_page_hits_hot_mix(self):
        hot = McWorkload(reads_per_trefi_per_bank=24.0, hot_fraction=0.6,
                         hot_rows=2)
        closed = run_mc(McRunConfig(policy=PolicySpec("null"), workload=hot,
                                    row_policy="closed", banks=2, n_trefi=128))
        opened = run_mc(McRunConfig(policy=PolicySpec("null"), workload=hot,
                                    row_policy="open", banks=2, n_trefi=128))
        assert closed.row_hit_rate == 0.0
        assert opened.row_hit_rate > 0.0
        assert opened.total_acts < closed.total_acts
        assert opened.read_mean_ns < closed.read_mean_ns

    def test_bursty_process_runs(self):
        bursty = McWorkload(process="bursty", reads_per_trefi_per_bank=16.0)
        result = run_mc(McRunConfig(workload=bursty, banks=2, n_trefi=256))
        assert result.requests > 0
        # Bursts pile onto the queues: worse tail than smooth Poisson
        # at the same mean rate.
        smooth = run_mc(McRunConfig(workload=QUIET, banks=2, n_trefi=256))
        assert result.read_p99_ns > smooth.read_p99_ns

    def test_determinism(self):
        config = McRunConfig(workload=QUIET, banks=2, n_trefi=128)
        a, b = run_mc(config), run_mc(config)
        assert a.as_metrics() == b.as_metrics()

    def test_empty_metrics_are_nan_not_zero(self):
        config = McRunConfig(workload=QUIET, banks=1, n_trefi=64)
        result = run_mc_requests([], config)
        assert math.isnan(result.read_p99_ns)
        assert result.requests == 0


class TestAboLatencyStaircase:
    """The acceptance criterion of the subsystem: at a fixed arrival
    rate, longer ALERT recovery (ABO level 1 -> 2 -> 4) must be
    visible as strictly increasing p99 read latency — the queueing
    effect the open-loop stall fraction cannot express."""

    @pytest.fixture(scope="class")
    def by_level(self):
        return {
            level: run_mc(
                McRunConfig(ath=32, abo_level=level,
                            workload=HAMMER_WORKLOAD, banks=4, n_trefi=512)
            )
            for level in (1, 2, 4)
        }

    def test_p99_strictly_increasing(self, by_level):
        assert (by_level[1].read_p99_ns
                < by_level[2].read_p99_ns
                < by_level[4].read_p99_ns)

    def test_mean_latency_increases(self, by_level):
        assert (by_level[1].read_mean_ns
                < by_level[2].read_mean_ns
                < by_level[4].read_mean_ns)

    def test_stall_fraction_increases(self, by_level):
        """Figure 17's direction: fewer but longer ALERTs cost more."""
        assert (by_level[1].stall_fraction
                < by_level[2].stall_fraction
                < by_level[4].stall_fraction)

    def test_alert_count_drops_as_each_services_more(self, by_level):
        """MOAT-L4 mitigates 4 rows per episode (Appendix D)."""
        assert by_level[4].alerts < by_level[1].alerts

    def test_null_is_level_invariant(self):
        results = [
            run_mc(
                McRunConfig(ath=32, abo_level=level,
                            policy=PolicySpec("null"),
                            workload=HAMMER_WORKLOAD, banks=2, n_trefi=256)
            )
            for level in (1, 2, 4)
        ]
        assert len({r.read_p99_ns for r in results}) == 1
        assert all(r.alerts == 0 for r in results)


class TestPerfCrossCheck:
    """At matched activation streams the closed-loop controller and the
    open-loop perf front-end must agree exactly: same ACT sequence,
    same ALERTs, same stall time."""

    @pytest.mark.parametrize("workload,ath", [("mcf", 32), ("roms", 64)])
    def test_alerts_and_stall_match_run_workload(self, workload, ath):
        n_trefi = 256
        schedule = generate_schedule(
            profile_by_name(workload), n_trefi=n_trefi, seed=0
        )
        perf = run_workload(
            profile_by_name(workload),
            RunConfig(ath=ath, model_cross_bank_service=False,
                      n_trefi=n_trefi),
        )
        mc = run_mc_requests(
            requests_from_schedule(schedule),
            McRunConfig(ath=ath, queue_depth=None, scheduler="fcfs",
                        row_policy="closed", banks=1, subchannels=1,
                        n_trefi=n_trefi),
            workload_name=workload,
        )
        assert mc.alerts == perf.alerts
        assert mc.total_acts == perf.total_acts
        assert mc.stall_ns == perf.stall_ns
        assert mc.elapsed_ns == perf.elapsed_ns

    def test_stall_fraction_matches_slowdown_when_unscaled(self):
        """With every bank simulated the two metrics are the same
        quantity (no partial-simulation scaling)."""
        n_trefi = 256
        schedule = generate_schedule(
            profile_by_name("mcf"), n_trefi=n_trefi, seed=0
        )
        perf = run_workload(
            profile_by_name("mcf"),
            RunConfig(ath=32, model_cross_bank_service=False,
                      banks_per_subchannel=1, n_trefi=n_trefi),
        )
        mc = run_mc_requests(
            requests_from_schedule(schedule),
            McRunConfig(ath=32, queue_depth=None, scheduler="fcfs",
                        banks=1, n_trefi=n_trefi),
        )
        assert mc.stall_fraction == pytest.approx(perf.slowdown)


class TestStreamReuse:
    """``run_mc`` generates the request stream of a (workload,
    sub-channels, banks, n_trefi, rows_per_bank, seed, tREFI) key once
    and keeps it for the next run with the same key, so no serve path
    may write a column of it. Each test starts and ends with the memo
    empty."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """Every stream ``run_mc`` generates, in order."""
        generated = []

        def counting(*args, **kwargs):
            generated.append(generate_requests(*args, **kwargs))
            return generated[-1]

        monkeypatch.setattr(sim_mc, "generate_requests", counting)
        sim_mc._request_stream.cache_clear()
        yield generated
        sim_mc._request_stream.cache_clear()

    @pytest.fixture
    def paths(self, monkeypatch):
        """The serve path of every batch served, in order."""
        paths = []
        serve = MemoryController.serve_streams

        def recording(self, *args, **kwargs):
            batch = serve(self, *args, **kwargs)
            paths.append(batch.path)
            return batch

        monkeypatch.setattr(MemoryController, "serve_streams", recording)
        return paths

    @staticmethod
    def fresh_stream(config):
        return generate_requests(
            config.workload, num_subchannels=config.subchannels,
            banks_per_subchannel=config.banks, n_trefi=config.n_trefi,
            rows_per_bank=config.rows_per_bank, seed=config.seed,
            trefi_ns=config.timing.t_refi,
        )

    @pytest.mark.parametrize("change", [
        {"seed": 1}, {"n_trefi": 64}, {"banks": 1}, {"workload": QUIET},
        {"rows_per_bank": 32 * 1024}, {"subchannels": 2},
        {"timing": dataclasses.replace(DDR5_PRAC_TIMING, t_refi=7800.0)},
    ], ids=["seed", "n_trefi", "banks", "workload", "rows", "subchannels",
            "trefi"])
    def test_changed_key_regenerates(self, generated, change):
        base = McRunConfig(ath=32, workload=HAMMER_WORKLOAD, banks=2,
                           n_trefi=128)
        changed = dataclasses.replace(base, **change)
        first = run_mc(base)
        run_mc(changed)
        assert len(generated) == 2
        assert generated[1] == self.fresh_stream(changed)
        assert run_mc(base) == first

    def test_policy_points_equal_in_any_order(self, generated):
        configs = [p.config for p in
                   mc_preset("mc-policy").with_overrides(n_trefi=128).points()]
        forward = [run_mc(c) for c in configs]
        assert len(generated) == 1
        backward = [run_mc(c) for c in reversed(configs)]
        assert backward[::-1] == forward
        assert len(generated) == 1
        cleared = []
        for config in configs:
            sim_mc._request_stream.cache_clear()
            cleared.append(run_mc(config))
        assert cleared == forward
        assert len(generated) == 1 + len(configs)

    @pytest.mark.parametrize("overrides,path", [
        ({}, "soa"),
        ({"queue_depth": None}, "reference:unbounded-queue"),
        ({"row_policy": "open", "workload": McWorkload(
            reads_per_trefi_per_bank=24.0, hot_fraction=0.6, hot_rows=2)},
         "reference:open-page"),
        ({"recorder": True}, "soa"),
    ], ids=["soa", "reference", "open-page", "recorder"])
    def test_serving_leaves_the_stream_unchanged(self, generated, paths,
                                                 overrides, path):
        overrides = dict(overrides)
        recorder = TraceRecorder() if overrides.pop("recorder", False) else None
        config = McRunConfig(**{
            "ath": 32, "workload": HAMMER_WORKLOAD, "banks": 2,
            "n_trefi": 128, **overrides,
        })
        first = run_mc(config, recorder=recorder)
        assert paths == [path]
        assert first.alerts > 0 or config.row_policy == "open"
        (stream,) = generated
        assert stream == self.fresh_stream(config)
        assert run_mc(config) == first
        assert len(generated) == 1
