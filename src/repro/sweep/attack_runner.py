"""Attack-family point executor over the shared sweep runner.

Attack points are independent, fully deterministic simulations (the
adaptive attacks carry no hidden global state), so executing them
across a ``ProcessPoolExecutor`` is bit-identical to a serial run.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.sweep.attack_spec import AttackSweepPoint, AttackSweepSpec
from repro.sweep.runner import (
    PointResult,
    ProgressFn,
    SweepResult,
    run_grid,
    wall_timer,
)

#: Default on-disk cache location (sibling of the perf sweep cache).
DEFAULT_ATTACK_CACHE_DIR = Path(".repro-cache") / "attack"


def execute_attack_point(point: AttackSweepPoint) -> PointResult:
    """Run one attack point in the current process (worker entry)."""
    started = wall_timer()
    result = point.attack.execute(point.run)
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "attack": point.attack.display_name(),
            "kind": point.attack.kind,
            "figure": point.attack.figure,
            "subchannels": point.run.subchannels,
            "params": point.attack.param_dict(),
        },
        metrics=result.as_metrics(),
        wall_clock_s=wall_timer() - started,
    )


def run_attack_sweep(
    spec: AttackSweepSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = DEFAULT_ATTACK_CACHE_DIR,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Execute every point of an attack ``spec`` (see ``run_grid``)."""
    return run_grid(spec, execute_attack_point, jobs, cache_dir, progress)
