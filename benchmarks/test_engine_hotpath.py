"""Engine hot-path microbenchmark: batched ACTs vs the per-ACT loop.

Pins the performance claim of the layered-core refactor: driving a
workload through the ``activate_many`` fast path must be at least 1.5x
faster per simulated tREFI than issuing the same rows through one
``activate()`` method-call chain per ACT, on the same flat PRAC counter
array. Both paths produce bit-identical simulation state — that
equivalence is pinned by ``tests/sim/test_engine_batch.py``; this
benchmark pins the speed.

The measured wall-clock per simulated tREFI lands in
``results/summary.json`` (uploaded as a CI artifact), so the engine's
perf trajectory stays visible across PRs.
"""

import time

from benchmarks.conftest import FAST
from repro.mitigations.moat import MoatPolicy
from repro.report.tables import format_table
from repro.sim.engine import SimConfig, SubchannelSim
from repro.workloads.generator import generate_schedule
from repro.workloads.profiles import profile_by_name

N_TREFI = 1024 if FAST else 2048
ROUNDS = 3
REQUIRED_SPEEDUP = 1.5


def _drive(schedule, batched: bool) -> float:
    """One timed run; returns seconds. Asserts the runs agree."""
    sim = SubchannelSim(
        SimConfig(track_danger=False), lambda: MoatPolicy(ath=64)
    )
    trefi = sim.timing.t_refi
    started = time.perf_counter()
    for interval, rows in enumerate(schedule):
        target = interval * trefi
        if sim.now < target:
            sim.advance_to(target)
        if batched:
            sim.activate_many(rows)
        else:
            for row in rows:
                sim.activate(row)
    sim.flush()
    elapsed = time.perf_counter() - started
    # Smoke-check the run did real work and both paths agree on it.
    assert sim.total_acts == sum(len(rows) for rows in schedule)
    return elapsed


def test_engine_hotpath_speedup(report, record_json):
    schedule = generate_schedule(
        profile_by_name("roms"), n_trefi=N_TREFI, seed=0
    ).per_trefi

    # Best-of-N on both paths: robust against scheduler noise without
    # hiding a real regression.
    legacy = min(_drive(schedule, batched=False) for _ in range(ROUNDS))
    fast = min(_drive(schedule, batched=True) for _ in range(ROUNDS))
    speedup = legacy / fast
    legacy_us = legacy / N_TREFI * 1e6
    fast_us = fast / N_TREFI * 1e6

    report(
        format_table(
            ["engine path", "us / simulated tREFI"],
            [
                ("per-ACT activate loop", f"{legacy_us:.1f}"),
                ("batched activate_many", f"{fast_us:.1f}"),
                ("speedup (batched vs per-ACT)", f"{speedup:.2f}x"),
            ],
            title="Engine hot path - batched vs per-ACT loop",
        )
    )
    record_json(
        {
            "legacy_us_per_trefi": legacy_us,
            "fast_us_per_trefi": fast_us,
            "speedup": speedup,
            "required_speedup": REQUIRED_SPEEDUP,
            "n_trefi": N_TREFI,
        },
        key="engine_hotpath",
    )
    assert speedup >= REQUIRED_SPEEDUP, (
        f"batched hot path only {speedup:.2f}x faster than the per-ACT "
        f"loop (need {REQUIRED_SPEEDUP}x)"
    )
