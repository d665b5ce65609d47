"""The unified sweep-family registry.

Five artifact families share one execution/caching/gating stack (spec
→ points → :func:`~repro.sweep.runner.run_grid` → artifact → baseline
gate); what distinguishes them is declarative: which spec class, which
preset table, which schema id, which metrics gate, which baseline
filename prefix, which aggregates summarize a run. A
:class:`SweepFamily` captures exactly that declarative surface, and
:data:`FAMILIES` registers all five — perf, attack, model, mc, system
— so the CLI, the report pipeline, the artifact builder, and the
baseline gate are derived from one table.

The registry is purely descriptive: hashes, keys, and artifact layouts
are pinned by the committed baselines passing ``--check`` unchanged,
and :meth:`SweepFamily.make_artifact` is *the* artifact builder.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sweep.artifacts import (
    BASELINE_DIR,
    DEFAULT_ATOL,
    DEFAULT_RTOL,
    diff_artifacts,
    git_revision,
    git_toplevel,
    load_artifact,
    utc_now,
)
from repro.sweep.attack_runner import (
    DEFAULT_ATTACK_CACHE_DIR,
    run_attack_sweep,
)
from repro.sweep.attack_spec import ATTACK_PRESETS, AttackSweepSpec
from repro.sweep.mc_runner import DEFAULT_MC_CACHE_DIR, run_mc_sweep
from repro.sweep.mc_spec import MC_PRESETS, McSweepSpec
from repro.sweep.model_runner import (
    DEFAULT_MODEL_CACHE_DIR,
    run_model_sweep,
)
from repro.sweep.model_spec import MODEL_PRESETS, ModelSweepSpec
from repro.sweep.runner import (
    DEFAULT_CACHE_DIR,
    PointResult,
    SweepResult,
    run_sweep,
)
from repro.sweep.spec import PRESETS, SweepSpec
from repro.sweep.system_runner import (
    DEFAULT_SYSTEM_CACHE_DIR,
    run_system_sweep,
)
from repro.sweep.system_spec import SYSTEM_PRESETS, SystemSweepSpec


@dataclass(frozen=True)
class SweepFamily:
    """One sweep family's declarative surface.

    Attributes:
        name: Registry key and CLI command name.
        schema: Artifact schema id (``"repro.<family>/v1"``).
        baseline_prefix: Committed-baseline filename prefix (the perf
            family predates prefixes and uses ``""``).
        bench_prefix: Artifact filename infix
            (``BENCH_<bench_prefix>_<preset>.json``; the perf family
            predates the registry and spells it ``sweep``).
        description: One-line summary (CLI help).
        list_title: Title of the family's ``list-presets`` table.
        spec_type: The family's spec dataclass.
        presets: Named preset table (``name -> spec``).
        run: ``run(spec, jobs=, cache_dir=, progress=) -> SweepResult``.
        gated_metrics: Metrics the baseline gate compares; ``None``
            gates every metric recorded in the baseline (the model and
            system convention).
        aggregate: Cross-point summary of a run's point results (the
            artifact's ``aggregates`` block).
        default_cache_dir: The runner's default point cache.
        cache_subdir: Subdirectory under a ``--cache-root``.
        top_fields: Family-specific top-level artifact fields drawn
            from the spec (scale/seed provenance).
    """

    name: str
    schema: str
    baseline_prefix: str
    bench_prefix: str
    description: str
    list_title: str
    spec_type: type
    presets: Mapping[str, Any]
    run: Callable[..., SweepResult]
    gated_metrics: Optional[Tuple[str, ...]]
    aggregate: Callable[[List[PointResult]], Dict[str, float]]
    default_cache_dir: Path
    cache_subdir: str
    top_fields: Callable[[Any], Dict[str, Any]]

    def preset(self, name: str) -> Any:
        """Look up a preset by name with a helpful error."""
        try:
            return self.presets[name]
        except KeyError:
            known = ", ".join(sorted(self.presets))
            raise KeyError(
                f"unknown {self.name} preset {name!r}; known: {known}"
            ) from None

    def baseline_name(self, preset_name: str) -> str:
        """Committed baseline filename for a preset."""
        return f"{self.baseline_prefix}{preset_name}.json"

    def default_baseline_path(
        self, preset_name: str, root: Optional[Path] = None
    ) -> Path:
        """Committed baseline location for a preset (``--check``).

        Without a ``root`` the path resolves under the CWD when the
        baseline exists there, else under the repro checkout — so the
        installed ``repro`` script finds the committed baselines from
        any working directory inside the checkout.
        """
        if root is not None:
            return Path(root) / BASELINE_DIR / self.baseline_name(preset_name)
        path = BASELINE_DIR / self.baseline_name(preset_name)
        if not path.is_file():
            toplevel = git_toplevel()
            if toplevel is not None:
                return toplevel / path
        return path

    def make_artifact(
        self,
        result: SweepResult,
        git_rev: Optional[str] = None,
        provenance: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Serialize a sweep result into this family's artifact schema.

        One builder for all five families: the shared layout (schema,
        provenance, timing, aggregates, keyed points) is fixed here;
        the family contributes its ``top_fields`` and ``aggregate``,
        and each point its ``identity`` columns (artifacts are
        serialized with ``sort_keys=True``, so insertion order carries
        no information).

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
            **self.top_fields(spec),
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
        rtol: float = DEFAULT_RTOL,
        atol: float = DEFAULT_ATOL,
    ) -> Tuple[bool, List[str]]:
        """Gate an artifact on a baseline file with this family's
        schema and gated-metric set."""
        path = Path(baseline_path)
        if not path.is_file():
            return False, [
                f"baseline not found: {path} (generate one with "
                "`repro sweep ... --write-baseline`)"
            ]
        try:
            baseline = load_artifact(path, self.schema)
        except (OSError, ValueError) as exc:
            # Truncated, hand-edited, or wrong-schema baselines must
            # fail the gate with a problem line, not a traceback.
            return False, [f"unreadable baseline: {exc}"]
        problems = diff_artifacts(
            baseline, artifact, rtol=rtol, atol=atol,
            gated_metrics=self.gated_metrics,
        )
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
    bench_prefix="sweep",
    schema="repro.sweep/v1",
    baseline_prefix="",
    description="Open-loop performance sweeps over the Table 4 "
    "workloads (slowdown, ALERT rate, mitigation volume)",
    list_title="Sweep presets",
    spec_type=SweepSpec,
    presets=PRESETS,
    run=run_sweep,
    # Wall-clock is recorded but never gated (machine-dependent).
    gated_metrics=(
        "alerts",
        "alerts_per_trefi",
        "slowdown",
        "normalized_performance",
        "mitigations_per_trefw_per_bank",
        "activation_overhead",
        "total_acts",
        "proactive_mitigations",
        "reactive_mitigations",
    ),
    aggregate=_perf_aggregate,
    default_cache_dir=DEFAULT_CACHE_DIR,
    cache_subdir="sweep",
    top_fields=lambda spec: {"n_trefi": spec.n_trefi, "seed": spec.seed},
)

ATTACK_FAMILY = SweepFamily(
    name="attack",
    bench_prefix="attack",
    schema="repro.attack/v1",
    baseline_prefix="attack_",
    description="Security sweeps over registered attack kinds "
    "(max danger, ALERTs, attack throughput)",
    list_title="Attack sweep presets",
    spec_type=AttackSweepSpec,
    presets=ATTACK_PRESETS,
    run=run_attack_sweep,
    # Everything a deterministic attack reports is gateable; per-attack
    # ``detail:`` metrics missing from a point are skipped by the diff.
    gated_metrics=(
        "acts_on_attack_row",
        "max_danger",
        "alerts",
        "total_acts",
        "elapsed_ns",
        "throughput",
        "detail:throughput_loss",
        "detail:normalized_throughput",
        "detail:baseline_ns",
        "detail:survivors",
    ),
    aggregate=_attack_aggregate,
    default_cache_dir=DEFAULT_ATTACK_CACHE_DIR,
    cache_subdir="attack",
    top_fields=lambda spec: {"seed": spec.seed},
)

MODEL_FAMILY = SweepFamily(
    name="model",
    bench_prefix="model",
    schema="repro.model/v1",
    baseline_prefix="model_",
    description="Analytic model sweeps (closed-form tables: safe TRH, "
    "throughput bounds, mitigation rates)",
    list_title="Model sweep presets",
    spec_type=ModelSweepSpec,
    presets=MODEL_PRESETS,
    run=run_model_sweep,
    # The evaluators are pure functions, so every metric they emit is a
    # stable, gateable quantity.
    gated_metrics=None,
    aggregate=lambda results: {"points": float(len(results))},
    default_cache_dir=DEFAULT_MODEL_CACHE_DIR,
    cache_subdir="model",
    # Scale-free: scale-aware kinds carry their window as a parameter.
    top_fields=lambda spec: {},
)

MC_FAMILY = SweepFamily(
    name="mc",
    bench_prefix="mc",
    schema="repro.mc/v1",
    baseline_prefix="mc_",
    description="Closed-loop memory-controller sweeps (read latency "
    "percentiles, bandwidth, queue occupancy)",
    list_title="Memory-controller sweep presets",
    spec_type=McSweepSpec,
    presets=MC_PRESETS,
    run=run_mc_sweep,
    # Request streams and stochastic policies derive from the point
    # config, so every latency/bandwidth/queueing metric is gateable.
    gated_metrics=(
        "requests",
        "reads",
        "read_mean_ns",
        "read_p50_ns",
        "read_p99_ns",
        "read_max_ns",
        "avg_queue_ns",
        "avg_queue_occupancy",
        "achieved_gbps",
        "requests_per_trefi",
        "row_hit_rate",
        "alerts",
        "alerts_per_trefi",
        "stall_fraction",
        "total_acts",
    ),
    aggregate=_latency_aggregate,
    default_cache_dir=DEFAULT_MC_CACHE_DIR,
    cache_subdir="mc",
    top_fields=lambda spec: {"n_trefi": spec.n_trefi, "seed": spec.seed},
)

SYSTEM_FAMILY = SweepFamily(
    name="system",
    bench_prefix="system",
    schema="repro.system/v1",
    baseline_prefix="system_",
    description="Multi-client, multi-channel system scenarios "
    "(per-client latency tails, noisy-neighbor contrasts)",
    list_title="System sweep presets",
    spec_type=SystemSweepSpec,
    presets=SYSTEM_PRESETS,
    run=run_system_sweep,
    # The per-client columns (``"{client}:read_p99_ns"`` …) vary by
    # scenario, so the gate checks every metric the baseline recorded.
    gated_metrics=None,
    aggregate=_latency_aggregate,
    default_cache_dir=DEFAULT_SYSTEM_CACHE_DIR,
    cache_subdir="system",
    # Scenarios carry their own scale/seed (no spec-level n_trefi).
    top_fields=lambda spec: {},
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
