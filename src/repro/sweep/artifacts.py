"""Machine-readable sweep artifacts and baseline gating.

Every sweep family serializes to a ``BENCH_<family>_<preset>.json``
artifact of one shared layout; the family-specific parts (schema id,
gated metrics, baseline prefix, aggregates) live on its
:class:`~repro.sweep.family.SweepFamily` registry entry, whose
:meth:`~repro.sweep.family.SweepFamily.make_artifact` builds the
artifact. A performance artifact looks like:

.. code-block:: json

    {
      "schema": "repro.sweep/v1",
      "preset": "fig11",
      "sweep_hash": "0123abcd...",
      "git_rev": "f80eac4",
      "created_utc": "2026-07-29T12:00:00Z",
      "n_trefi": 512,
      "seed": 0,
      "jobs": 2,
      "wall_clock_s": 41.7,
      "aggregates": {"avg_slowdown": 0.0016, "...": 0},
      "points": {
        "roms|moat|ath=64|...": {
          "config_hash": "8a9b...",
          "metrics": {"slowdown": 0.002, "...": 0},
          "wall_clock_s": 1.9
        }
      }
    }

``diff_artifacts`` compares a fresh run against a committed baseline:
every point of the run must exist in the baseline with an identical
config hash (otherwise the comparison would be apples-to-oranges) and
every recorded metric must match within tolerance. The simulator is
fully deterministic, so the default tolerances are generous enough to
survive benign floating-point reassociation yet far below any real
behavioral regression.
"""

from __future__ import annotations

import json
import math
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Default relative location of committed baselines.
BASELINE_DIR = Path("benchmarks") / "baselines"

DEFAULT_RTOL = 0.05
DEFAULT_ATOL = 1e-6


def utc_now() -> str:
    """ISO-8601 UTC timestamp used across artifacts and summaries."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _git(*args: str, cwd: Optional[Path] = None) -> Optional[str]:
    """Stripped stdout of a ``git`` command, or ``None`` on failure.

    Anchored at this module's location (not the process CWD) by
    default, so artifacts record the provenance of the *code that
    produced them*, even when ``repro`` runs from inside an unrelated
    repository; a site-packages install has no checkout at all.
    """
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd or Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def git_revision(cwd: Optional[Path] = None) -> str:
    """Revision of the repro checkout, or ``"unknown"``."""
    return _git("rev-parse", "--short", "HEAD", cwd=cwd) or "unknown"


def git_describe(cwd: Optional[Path] = None) -> str:
    """``git describe --always --dirty`` of the checkout, or ``"unknown"``.

    Richer than :func:`git_revision` — provenance blocks use it to
    record distance from the last tag and whether the working tree was
    dirty when the artifact was produced.
    """
    return _git("describe", "--always", "--dirty", cwd=cwd) or "unknown"


def git_toplevel(cwd: Optional[Path] = None) -> Optional[Path]:
    """Root of the repro checkout, or ``None`` for non-repo installs
    (baseline resolution finds the checkout's ``benchmarks/baselines/``
    regardless of the process CWD)."""
    top = _git("rev-parse", "--show-toplevel", cwd=cwd)
    return Path(top) if top else None


def write_artifact(path: Path, artifact: Dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")


def load_artifact(path: Path, schema: str) -> Dict:
    data = json.loads(Path(path).read_text())
    if data.get("schema") != schema:
        raise ValueError(
            f"{path}: unsupported artifact schema {data.get('schema')!r} "
            f"(expected {schema!r})"
        )
    return data


def diff_artifacts(
    baseline: Dict,
    current: Dict,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    gated_metrics: Optional[Tuple[str, ...]] = None,
) -> List[str]:
    """Compare ``current`` against ``baseline``; returns problems.

    An empty list means the run matches the baseline. Problems are
    human-readable strings: missing points, config-hash drift, or
    out-of-tolerance metrics. ``gated_metrics=None`` gates every metric
    recorded in the baseline point.
    """
    problems: List[str] = []
    base_points = baseline.get("points", {})
    current_points = current.get("points", {})
    # Coverage must not shrink: a run that silently drops grid points
    # (workload subset, narrowed axes) may not pass the gate.
    for key in base_points:
        if key not in current_points:
            problems.append(
                f"missing from run: {key} (baseline covers this point; "
                "the run's grid shrank)"
            )
    for key, point in current_points.items():
        base = base_points.get(key)
        if base is None:
            problems.append(
                f"missing from baseline: {key} (baseline was written for a "
                "different scale/grid; regenerate with --write-baseline)"
            )
            continue
        if base.get("config_hash") != point.get("config_hash"):
            problems.append(
                f"config drift: {key} hashed {point.get('config_hash')} but "
                f"baseline has {base.get('config_hash')} (simulator or "
                "generator semantics changed; regenerate the baseline)"
            )
            continue
        metrics_to_gate = (
            tuple(base.get("metrics", {})) if gated_metrics is None
            else gated_metrics
        )
        for metric in metrics_to_gate:
            if metric not in base.get("metrics", {}):
                continue
            got_raw = point.get("metrics", {}).get(metric)
            try:
                want = float(base["metrics"][metric])
                got = float("nan") if got_raw is None else float(got_raw)
            except (TypeError, ValueError):
                # Hand-edited values like "0.5%" fail the gate with a
                # problem line, never a traceback.
                problems.append(
                    f"unparseable metric: {key}: {metric} = {got_raw!r} "
                    f"(baseline {base['metrics'][metric]!r})"
                )
                continue
            # NaN compares False against every tolerance, so it must
            # fail explicitly — a missing or NaN metric is a gate
            # failure, never a silent pass.
            if math.isnan(got) or math.isnan(want):
                problems.append(
                    f"metric missing or NaN: {key}: {metric} = {got_raw!r} "
                    f"(baseline {base['metrics'][metric]!r})"
                )
                continue
            if abs(got - want) > atol + rtol * abs(want):
                problems.append(
                    f"metric regression: {key}: {metric} = {got:.6g} "
                    f"(baseline {want:.6g}, rtol={rtol}, atol={atol})"
                )
    return problems

