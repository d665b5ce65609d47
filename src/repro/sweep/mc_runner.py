"""Memory-controller-family point executor over the shared sweep runner.

mc points are independent, fully deterministic simulations (request
streams and stochastic policies derive their RNG streams from the
point's config), so executing them across a ``ProcessPoolExecutor`` is
bit-identical to a serial run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.sim.mc import run_mc
from repro.sweep.mc_spec import McSweepPoint, McSweepSpec
from repro.sweep.runner import (
    PointResult,
    ProgressFn,
    SweepResult,
    run_grid,
    wall_timer,
)

#: Default on-disk cache location (sibling of the other family caches).
DEFAULT_MC_CACHE_DIR = Path(".repro-cache") / "mc"


def execute_mc_point(point: McSweepPoint) -> PointResult:
    """Run one mc point in the current process (worker entry)."""
    started = wall_timer()
    result = run_mc(point.config)
    config = point.config
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "workload": config.workload.display_name(),
            "policy": config.policy.display_name(),
            "ath": config.ath,
            "eth": config.eth_resolved,
            "abo_level": config.abo_level,
            "scheduler": config.sched_display(),
            "row_policy": config.row_policy,
            "queue_depth": config.queue_depth,
            "subchannels": config.subchannels,
            "banks": config.banks,
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )


def run_mc_sweep(
    spec: McSweepSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = DEFAULT_MC_CACHE_DIR,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Execute every point of an mc ``spec`` (see ``run_grid``)."""
    return run_grid(spec, execute_mc_point, jobs, cache_dir, progress)
