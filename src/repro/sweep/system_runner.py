"""System-family point executor over the shared sweep runner.

One nesting rule: each sweep point runs
:func:`~repro.system.sim.run_system` *serially and uncached*
(``jobs=1, cache_dir=None``) — the sweep pool is the only process
pool, and the sweep point cache the only cache, so points stay
single-process workers and the sharding machinery never nests.
``run_system``'s own sharded pool/cache serve the direct API and
``repro system run``, where there is no outer pool.

A point's ``metrics`` is the flattened
:meth:`~repro.system.sim.SystemResult.as_metrics` view: system
aggregates at bare names plus ``"{client}:{metric}"`` per client, so
baselines gate per-client tails, not just the mean.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.system.sim import run_system
from repro.sweep.system_spec import SystemSweepPoint, SystemSweepSpec
from repro.sweep.runner import (
    PointResult,
    ProgressFn,
    SweepResult,
    run_grid,
    wall_timer,
)

def execute_system_point(point: SystemSweepPoint) -> PointResult:
    """Run one system scenario in the current process (worker entry).

    Serial and uncached by design — see the module docstring.
    """
    started = wall_timer()
    result = run_system(point.config, jobs=1, cache_dir=None)
    config = point.config
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "scenario": point.scenario,
            "clients": [client.name for client in config.clients],
            "policy": config.policy.display_name(),
            "scheduler": config.sched_display(),
            "ath": config.ath,
            "eth": config.eth_resolved,
            "abo_level": config.abo_level,
            "channels": config.channels,
            "banks": config.banks,
            "n_trefi": config.n_trefi,
            "seed": config.seed,
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )


def run_system_sweep(
    spec: SystemSweepSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Execute every scenario of a system ``spec`` (see ``run_grid``)."""
    return run_grid(spec, execute_system_point, jobs, cache_dir, progress)
