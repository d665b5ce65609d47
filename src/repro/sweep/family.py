"""The unified sweep-family registry.

Five artifact families share one execution/caching/gating stack (spec
→ points → :func:`~repro.sweep.runner.run_grid` → artifact → baseline
gate); what distinguishes them is declarative: which spec class, which
preset table, which schema id, which baseline filename prefix, which
aggregates summarize a run. A :class:`SweepFamily` captures exactly
that declarative surface, and :data:`FAMILIES` registers all five —
perf, attack, model, mc, system — so the CLI, the report pipeline, the
artifact builder, and the baseline gate are derived from one table.
The gate has one rule for every family: it compares each metric the
baseline point recorded.

The registry is purely descriptive: hashes, keys, and artifact layouts
are pinned by the committed baselines passing ``--check`` unchanged,
and :meth:`SweepFamily.make_artifact` is *the* artifact builder.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sweep.artifacts import (
    BASELINE_DIR,
    baseline_root,
    diff_artifacts,
    git_revision,
    load_artifact,
    utc_now,
)
from repro.sweep.attack_runner import run_attack_sweep
from repro.sweep.attack_spec import ATTACK_PRESETS
from repro.sweep.identity import lookup_preset
from repro.sweep.mc_runner import run_mc_sweep
from repro.sweep.mc_spec import MC_PRESETS
from repro.sweep.model_runner import run_model_sweep
from repro.sweep.model_spec import MODEL_PRESETS
from repro.sweep.runner import PointResult, SweepResult, run_sweep
from repro.sweep.spec import PRESETS
from repro.sweep.system_runner import run_system_sweep
from repro.sweep.system_spec import SYSTEM_PRESETS


@dataclass(frozen=True)
class SweepFamily:
    """One sweep family's declarative surface.

    What is spelled after the family's ``name`` is derived from it: the
    artifact schema (:attr:`schema`) and, in the CLI, the artifact file
    (``BENCH_<name>_<preset>.json``) and the point cache
    (``<cache root>/<name>``).

    Attributes:
        name: Registry key and CLI command name.
        baseline_prefix: Committed-baseline filename prefix (the perf
            family predates prefixes and uses ``""``).
        description: One-line summary (the ``sweep`` command's help).
        list_title: Title of the family's ``--list-presets`` table.
        presets: Named preset table (``name -> spec``).
        run: ``run(spec, jobs=, cache_dir=, progress=) -> SweepResult``.
        aggregate: Cross-point summary of a run's point results (the
            artifact's ``aggregates`` block).
    """

    name: str
    baseline_prefix: str
    description: str
    list_title: str
    presets: Mapping[str, Any]
    run: Callable[..., SweepResult]
    aggregate: Callable[[List[PointResult]], Dict[str, float]]

    @property
    def schema(self) -> str:
        """Artifact schema id, ``repro.<name>/v1``."""
        return f"repro.{self.name}/v1"

    def preset(self, name: str) -> Any:
        """Look up a preset by name with a helpful error."""
        return lookup_preset(self.presets, self.name, name)

    def baseline_name(self, preset_name: str) -> str:
        """Committed baseline filename for a preset."""
        return f"{self.baseline_prefix}{preset_name}.json"

    def default_baseline_path(
        self, preset_name: str, root: Optional[Path] = None
    ) -> Path:
        """Committed baseline location for a preset (``--check`` and
        ``--write-baselines``), under :func:`baseline_root`."""
        return (baseline_root(root) / BASELINE_DIR
                / self.baseline_name(preset_name))

    def make_artifact(
        self,
        result: SweepResult,
        git_rev: Optional[str] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Serialize a sweep result into this family's artifact schema.

        One builder for all five families: the shared layout (schema,
        provenance, timing, aggregates, keyed points) is fixed here;
        the spec contributes its own ``n_trefi``/``seed`` fields where
        it has them, the family its ``aggregate``, and each point its
        ``identity`` columns (artifacts are serialized with
        ``sort_keys=True``, so insertion order carries no information).

        ``provenance`` (a :func:`repro.obs.run_provenance` block,
        carrying the run's backend/git/cache identity) is added as a
        separate top-level key only when given: the baseline gate
        compares ``points`` only, and omitting the key keeps artifacts
        written without it byte-identical to earlier releases.
        """
        spec = result.spec
        artifact: Dict[str, Any] = {
            "schema": self.schema,
            "preset": spec.name,
            "description": spec.description,
            "sweep_hash": spec.sweep_hash(),
            "git_rev": git_revision() if git_rev is None else git_rev,
            "created_utc": utc_now(),
            **{f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)
               if f.name in ("n_trefi", "seed")},
            "jobs": result.jobs,
            "wall_clock_s": round(result.wall_clock_s, 3),
            "compute_time_s": round(result.compute_time_s, 3),
            "cache_hits": result.cache_hits,
            "aggregates": self.aggregate(result.results),
            "points": {
                r.key: {
                    "config_hash": r.config_hash,
                    # Copies: callers may mutate artifacts (baseline
                    # editing) without corrupting the live results.
                    **{k: copy.copy(v) for k, v in r.identity.items()},
                    "metrics": dict(r.metrics),
                    "wall_clock_s": round(r.wall_clock_s, 3),
                }
                for r in result.results
            },
        }
        if provenance is not None:
            artifact["provenance"] = provenance
        return artifact

    def check_against_baseline(
        self,
        artifact: Dict[str, Any],
        baseline_path: Path,
        rtol: float = 0.0,
        atol: float = 0.0,
    ) -> Tuple[bool, List[str]]:
        """Gate an artifact on a baseline file with this family's
        schema: every metric the baseline recorded, exactly unless
        given a tolerance."""
        path = Path(baseline_path)
        if not path.is_file():
            return False, [
                f"baseline not found: {path} (generate one with "
                "`repro sweep ... --write-baselines`)"
            ]
        try:
            baseline = load_artifact(path, self.schema)
        except (OSError, ValueError) as exc:
            # Truncated, hand-edited, or wrong-schema baselines must
            # fail the gate with a problem line, not a traceback.
            return False, [f"unreadable baseline: {exc}"]
        problems = diff_artifacts(baseline, artifact, rtol=rtol, atol=atol)
        return not problems, problems


def _mean(results: List[PointResult], metric: str) -> float:
    return sum(r.metrics.get(metric, 0.0) for r in results) / len(results)


def _perf_aggregate(results: List[PointResult]) -> Dict[str, float]:
    if not results:
        return {}
    gmean = 1.0
    for r in results:
        gmean *= max(r.metrics.get("normalized_performance", 1.0), 1e-12)
    return {
        "points": float(len(results)),
        "avg_slowdown": _mean(results, "slowdown"),
        "avg_alerts_per_trefi": _mean(results, "alerts_per_trefi"),
        "gmean_normalized_performance": gmean ** (1.0 / len(results)),
    }


def _attack_aggregate(results: List[PointResult]) -> Dict[str, float]:
    if not results:
        return {}
    return {
        "points": float(len(results)),
        "total_alerts": sum(r.metrics.get("alerts", 0.0) for r in results),
        "max_acts_on_attack_row": max(
            r.metrics.get("acts_on_attack_row", 0.0) for r in results
        ),
        "max_danger": max(r.metrics.get("max_danger", 0.0) for r in results),
    }


def _latency_aggregate(results: List[PointResult]) -> Dict[str, float]:
    """The closed-loop (mc and system) summary."""
    if not results:
        return {}
    return {
        "points": float(len(results)),
        "avg_read_p99_ns": _mean(results, "read_p99_ns"),
        "avg_achieved_gbps": _mean(results, "achieved_gbps"),
        "avg_stall_fraction": _mean(results, "stall_fraction"),
        "total_alerts": sum(r.metrics.get("alerts", 0.0) for r in results),
    }


PERF_FAMILY = SweepFamily(
    name="sweep",
    baseline_prefix="",
    description="Open-loop performance sweeps over the Table 4 "
    "workloads (slowdown, ALERT rate, mitigation volume)",
    list_title="Sweep presets",
    presets=PRESETS,
    run=run_sweep,
    aggregate=_perf_aggregate,
)

ATTACK_FAMILY = SweepFamily(
    name="attack",
    baseline_prefix="attack_",
    description="Security sweeps over registered attack kinds "
    "(max danger, ALERTs, attack throughput)",
    list_title="Attack sweep presets",
    presets=ATTACK_PRESETS,
    run=run_attack_sweep,
    aggregate=_attack_aggregate,
)

MODEL_FAMILY = SweepFamily(
    name="model",
    baseline_prefix="model_",
    description="Analytic model sweeps (closed-form tables: safe TRH, "
    "throughput bounds, mitigation rates)",
    list_title="Model sweep presets",
    presets=MODEL_PRESETS,
    run=run_model_sweep,
    aggregate=lambda results: {"points": float(len(results))},
)

MC_FAMILY = SweepFamily(
    name="mc",
    baseline_prefix="mc_",
    description="Closed-loop memory-controller sweeps (read latency "
    "percentiles, bandwidth, queue occupancy)",
    list_title="Memory-controller sweep presets",
    presets=MC_PRESETS,
    run=run_mc_sweep,
    aggregate=_latency_aggregate,
)

SYSTEM_FAMILY = SweepFamily(
    name="system",
    baseline_prefix="system_",
    description="Multi-client, multi-channel system scenarios "
    "(per-client latency tails, noisy-neighbor contrasts)",
    list_title="System sweep presets",
    presets=SYSTEM_PRESETS,
    run=run_system_sweep,
    aggregate=_latency_aggregate,
)

#: All registered families, in introduction order.
FAMILIES: Dict[str, SweepFamily] = {
    family.name: family
    for family in (
        PERF_FAMILY,
        ATTACK_FAMILY,
        MODEL_FAMILY,
        MC_FAMILY,
        SYSTEM_FAMILY,
    )
}


def get_family(name: str) -> SweepFamily:
    """Look up a registered family by name with a helpful error."""
    try:
        return FAMILIES[name]
    except KeyError:
        known = ", ".join(FAMILIES)
        raise KeyError(
            f"unknown sweep family {name!r}; known: {known}"
        ) from None
