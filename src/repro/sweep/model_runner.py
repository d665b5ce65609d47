"""Model-family point evaluator over the shared sweep runner.

Model points are pure, deterministic computations of analytic/derived
quantities. Most evaluators are microseconds of arithmetic — the cache
matters for the few that are not (the sampled Jailbreak curve at 2^20
iterations, per-workload schedule generation for Table 4) and for
giving every point a stable ``BENCH``/baseline identity.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from repro.sweep.model_spec import ModelSweepPoint, ModelSweepSpec
from repro.sweep.runner import (
    PointResult,
    ProgressFn,
    SweepResult,
    run_grid,
    wall_timer,
)

#: Default on-disk cache location (sibling of the other sweep caches).
DEFAULT_MODEL_CACHE_DIR = Path(".repro-cache") / "model"


def execute_model_point(point: ModelSweepPoint) -> PointResult:
    """Evaluate one model point in the current process (worker entry)."""
    started = wall_timer()
    metrics = point.model.evaluate()
    return PointResult(
        key=point.key,
        config_hash=point.config_hash(),
        identity={
            "kind": point.model.kind,
            "params": point.model.param_dict(),
        },
        metrics={k: float(v) for k, v in metrics.items()},
        wall_clock_s=wall_timer() - started,
    )


def run_model_sweep(
    spec: ModelSweepSpec,
    jobs: int = 1,
    cache_dir: Optional[Path] = DEFAULT_MODEL_CACHE_DIR,
    progress: Optional[ProgressFn] = None,
) -> SweepResult:
    """Evaluate every point of a model ``spec`` (see ``run_grid``)."""
    return run_grid(spec, execute_model_point, jobs, cache_dir, progress)
