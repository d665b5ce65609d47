"""Declarative model-sweep specifications and named presets.

The third sweep family next to the performance grids
(:mod:`repro.sweep.spec`) and the attack grids
(:mod:`repro.sweep.attack_spec`): a :class:`ModelSweepSpec` evaluates
*analytic and derived* quantities — closed-form security bounds, DRAM
timing identities, SRAM budgets, workload-generator characteristics —
through the same ``run_cached_grid`` cache/pool core and the same
artifact/baseline gating as the simulated families. That puts every
number the paper report needs, simulated or not, on one stack: cached,
parallelizable, and drift-gated.

A :class:`ModelSpec` is a picklable ``(kind, params)``
:class:`~repro.registry.KindSpec` over :data:`MODEL_KINDS`, whose spec
parameters are the registered evaluator's parameters, and
:data:`MODEL_PRESETS` names the grids behind the analytic paper
artifacts (Figure 8, Figure 15, Tables 1-4, the Section 6.5 storage
numbers, the Section 7.1 throughput model, ...).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.abo.protocol import AboConfig
from repro.analysis.energy import moat_sram_bytes, moat_sram_bytes_per_chip
from repro.analysis.feinting_model import feinting_bound, harmonic
from repro.analysis.ratchet_model import ratchet_safe_trh
from repro.analysis.throughput import (
    alert_window_throughput,
    continuous_alert_slowdown,
    mixed_throughput,
    single_bank_attack_throughput,
)
from repro.attacks.jailbreak import randomized_jailbreak_curve
from repro.dram.timing import BASELINE_SYSTEM, DDR5_PRAC_TIMING
from repro.mitigations.graphene import graphene_sram_bytes
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.panopticon import PanopticonPolicy
from repro.mitigations.trr import TrrTracker
from repro.registry import Kind, KindSpec, Registry
from repro.sweep.identity import SweepSpecBase, point_hash, unique_by_key
from repro.sim.perf import _channel_schedules
from repro.workloads.generator import measure_characteristics
from repro.workloads.profiles import profile_by_name


def _eval_abo_config(level: int = 1) -> Dict[str, float]:
    """Figure 8 / ABO protocol identities for one level."""
    config = AboConfig(level=level)
    return {
        "min_acts_between_alerts": float(config.min_acts_between_alerts),
        "pre_rfm_acts": float(config.pre_rfm_acts),
        "rfms_per_alert": float(config.rfms_per_alert),
        "alert_duration_ns": float(config.alert_duration),
    }


def _eval_timing() -> Dict[str, float]:
    """Table 1 DRAM timing identities (revised DDR5 / JESD79-5C)."""
    t = DDR5_PRAC_TIMING
    return {
        "t_act_ns": t.t_act,
        "t_pre_ns": t.t_pre,
        "t_ras_ns": t.t_ras,
        "t_rc_ns": t.t_rc,
        "t_refw_ms": t.t_refw / 1e6,
        "t_refi_ns": t.t_refi,
        "t_rfc_ns": t.t_rfc,
        "acts_per_trefi": float(t.acts_per_trefi),
        "refs_per_refw": float(t.refs_per_refw),
        "mitigations_per_refw_rate5": float(t.mitigations_per_refw(5)),
    }


def _eval_system_config() -> Dict[str, float]:
    """Table 3 baseline-system configuration, flattened to numbers."""
    cfg = BASELINE_SYSTEM
    return {
        "cores": float(cfg.cores),
        "core_freq_ghz": float(cfg.core_freq_ghz),
        "core_width": float(cfg.core_width),
        "rob_entries": float(cfg.rob_entries),
        "llc_mb": cfg.llc_bytes / 2**20,
        "llc_ways": float(cfg.llc_ways),
        "line_bytes": float(cfg.line_bytes),
        "memory_gb": float(cfg.memory_gb),
        "banks": float(cfg.banks),
        "subchannels": float(cfg.subchannels),
        "ranks": float(cfg.ranks),
        "rows_per_bank": float(cfg.rows_per_bank),
        "row_kb": cfg.row_bytes / 1024,
        "closed_page": float(cfg.closed_page),
        "alert_l1_ns": cfg.timing.alert_duration(1),
    }


def _eval_safe_trh(ath: int = 64, level: int = 1) -> Dict[str, float]:
    """Appendix A Ratchet bound: tolerated T_RH of MOAT."""
    return {"safe_trh": float(ratchet_safe_trh(ath, level))}


def _eval_feinting_bound(
    trefi_per_mitigation: int = 1, periods: int = 0
) -> Dict[str, float]:
    """Table 2 feinting bound; ``periods=0`` means the full window."""
    if periods:
        acts = DDR5_PRAC_TIMING.acts_per_trefi * trefi_per_mitigation
        return {"bound": acts * harmonic(periods)}
    return {"bound": feinting_bound(trefi_per_mitigation)}


def _eval_moat_sram(level: int = 1) -> Dict[str, float]:
    """Section 6.5 MOAT SRAM budget per bank and per 32-bank chip."""
    return {
        "bytes_per_bank": float(moat_sram_bytes(level)),
        "bytes_per_chip": float(moat_sram_bytes_per_chip(level)),
        "policy_bytes_per_bank": float(MoatPolicy(level=level).sram_bytes()),
    }


def _eval_design_sram(
    design: str = "moat",
    entries: int = 16,
    target_trh: int = 99,
    level: int = 1,
) -> Dict[str, float]:
    """Figure 1 SRAM coordinate of one tracker design."""
    if design == "trr":
        return {"sram_bytes": float(TrrTracker(entries=entries).sram_bytes())}
    if design == "graphene":
        return {"sram_bytes": float(graphene_sram_bytes(target_trh))}
    if design == "panopticon":
        return {"sram_bytes": float(PanopticonPolicy().sram_bytes())}
    if design == "moat":
        return {"sram_bytes": float(MoatPolicy(level=level).sram_bytes())}
    raise ValueError(f"unknown tracker design {design!r}")


def _eval_throughput_model(level: int = 1) -> Dict[str, float]:
    """Section 7.1 / Appendix D ALERT-throughput model for one level."""
    return {
        "alert_window_throughput": alert_window_throughput(level),
        "continuous_alert_slowdown": continuous_alert_slowdown(level),
        "mixed_throughput_10pct": mixed_throughput(0.1, level),
    }


def _eval_kernel_model(ath: int = 64, level: int = 1) -> Dict[str, float]:
    """Section 7.2 stall-only kernel model (Figure 13's analytic rows)."""
    throughput = single_bank_attack_throughput(ath=ath, level=level)
    return {"throughput": throughput, "throughput_loss": 1.0 - throughput}


def _eval_jailbreak_curve(
    iterations: int = 4,
    threshold: int = 128,
    queue_entries: int = 8,
    prime_acts: int = 32,
    seed: int = 0,
) -> Dict[str, float]:
    """Figure 5 randomized-Jailbreak sampled curve at one budget.

    Points at different iteration counts share one RNG stream prefix
    (same seed), so ``best_acts`` is monotone across a preset's grid
    exactly as in the figure.
    """
    curve = randomized_jailbreak_curve(
        [iterations],
        threshold=threshold,
        queue_entries=queue_entries,
        prime_acts=prime_acts,
        seed=seed,
    )
    return {"best_acts": float(curve[iterations])}


def _eval_workload_stats(
    workload: str = "roms", n_trefi: int = 2048, seed: int = 0
) -> Dict[str, float]:
    """Table 4 characteristics of one generated workload schedule: the
    bank-0 schedule the open-loop runs of the same workload, scale and
    seed replay, read through their memo."""
    profile = profile_by_name(workload)
    ((schedule,),) = _channel_schedules(profile, 1, 1, n_trefi, seed)
    stats = measure_characteristics(schedule)
    stats["paper_act_32_plus"] = float(profile.act_32_plus)
    stats["paper_act_64_plus"] = float(profile.act_64_plus)
    stats["paper_act_128_plus"] = float(profile.act_128_plus)
    return stats


#: Registered analytic models; each evaluator's parameters are the
#: kind's spec parameters.
MODEL_KINDS = Registry("model", (
    Kind("abo-config", _eval_abo_config,
         "ABO protocol identities per level (Figure 8)"),
    Kind("timing", _eval_timing,
         "revised DDR5 timing identities (Table 1)"),
    Kind("system-config", _eval_system_config,
         "baseline system configuration (Table 3)"),
    Kind("safe-trh", _eval_safe_trh,
         "Appendix A Ratchet bound (Figures 10/15, Table 7)"),
    Kind("feinting-bound", _eval_feinting_bound,
         "closed-form feinting T_RH bound (Table 2)"),
    Kind("moat-sram", _eval_moat_sram,
         "MOAT SRAM budget per bank/chip (Section 6.5)"),
    Kind("design-sram", _eval_design_sram,
         "SRAM coordinate of one tracker design (Figure 1)"),
    Kind("throughput-model", _eval_throughput_model,
         "continuous-ALERT throughput model (Section 7.1)"),
    Kind("kernel-model", _eval_kernel_model,
         "stall-only kernel throughput model (Section 7.2)"),
    Kind("jailbreak-curve", _eval_jailbreak_curve,
         "sampled randomized-Jailbreak curve (Figure 5)"),
    Kind("workload-stats", _eval_workload_stats,
         "generator characteristics of one workload (Table 4)"),
))


@dataclass(frozen=True)
class ModelSpec(KindSpec):
    """Declarative, hashable, picklable model-point description."""

    kind: str = "timing"

    registry = MODEL_KINDS

    def evaluate(self) -> Dict[str, float]:
        """Compute the point's metrics (pure, deterministic)."""
        return MODEL_KINDS[self.kind].call(**self.param_dict())


@dataclass(frozen=True)
class ModelSweepPoint:
    """One grid cell of a model sweep."""

    model: ModelSpec

    @property
    def key(self) -> str:
        return self.model.display_name()

    def config_hash(self) -> str:
        """Content hash of everything that determines the result."""
        return point_hash(model={
            "kind": self.model.kind,
            "params": [list(p) for p in self.model.params],
        })


@dataclass(frozen=True)
class ModelSweepSpec(SweepSpecBase):
    """Named list of model points (the analytic analogue of a grid)."""

    name: str
    description: str = ""
    models: Tuple[ModelSpec, ...] = ()

    def points(self) -> List[ModelSweepPoint]:
        """Expand in declaration order, deduplicated by key."""
        return unique_by_key(ModelSweepPoint(model=m) for m in self.models)

    def with_overrides(
        self,
        n_trefi: Optional[int] = None,
        seed: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None,
    ) -> "ModelSweepSpec":
        """Copy with ``workload-stats`` points rescaled to ``n_trefi``
        and cut to ``workloads``; every other kind is scale-free and
        passes through. The evaluators are deterministic, so there is
        no seed axis: a ``seed`` raises ``ValueError``."""
        self._refuse_seed(seed)
        if n_trefi is None and workloads is None:
            return self
        models: List[ModelSpec] = []
        for model in self.models:
            if model.kind != "workload-stats":
                models.append(model)
            elif (workloads is None
                  or model.param_dict().get("workload") in workloads):
                models.append(model if n_trefi is None
                              else model.replaced(n_trefi=n_trefi))
        return dataclasses.replace(self, models=tuple(models))


def _workload_stats_models(n_trefi: int = 2048) -> Tuple[ModelSpec, ...]:
    from repro.workloads.profiles import TABLE4_PROFILES

    return tuple(
        ModelSpec.of("workload-stats", workload=p.name, n_trefi=n_trefi)
        for p in TABLE4_PROFILES
    )


#: ATH grid shared by the Figure 10/15 safe-TRH curves.
SAFE_TRH_ATH_SWEEP = (16, 32, 48, 64, 80, 96, 112, 128)

MODEL_PRESETS: Dict[str, ModelSweepSpec] = {
    spec.name: spec
    for spec in (
        ModelSweepSpec(
            name="fig8",
            description="ABO protocol identities at levels 1/2/4 "
            "(Figure 8)",
            models=tuple(
                ModelSpec.of("abo-config", level=level) for level in (1, 2, 4)
            ),
        ),
        ModelSweepSpec(
            name="fig15",
            description="Safe T_RH under Ratchet across ATH x ABO level "
            "(Figure 15 / Figure 10 / Table 7)",
            models=tuple(
                ModelSpec.of("safe-trh", ath=ath, level=level)
                for level in (1, 2, 4)
                for ath in SAFE_TRH_ATH_SWEEP
            ),
        ),
        ModelSweepSpec(
            name="fig5-curve",
            description="Randomized-Jailbreak sampled curve vs "
            "iteration budget (Figure 5)",
            models=tuple(
                ModelSpec.of("jailbreak-curve", iterations=2**k)
                for k in range(2, 21, 3)
            ),
        ),
        ModelSweepSpec(
            name="fig1-sram",
            description="SRAM coordinates of the Figure 1 tracker "
            "design space at T_RH ~ 99",
            models=(
                ModelSpec.of("design-sram", design="trr", entries=16),
                ModelSpec.of("design-sram", design="graphene",
                             target_trh=99),
                ModelSpec.of("design-sram", design="panopticon"),
                ModelSpec.of("design-sram", design="moat", level=1),
            ),
        ),
        ModelSweepSpec(
            name="table1",
            description="Revised DDR5 timing identities (Table 1)",
            models=(ModelSpec.of("timing"),),
        ),
        ModelSweepSpec(
            name="table2-bound",
            description="Feinting T_RH bound per mitigation rate, full "
            "window and 512-period prefix (Table 2)",
            models=tuple(
                ModelSpec.of("feinting-bound", trefi_per_mitigation=k)
                for k in (1, 2, 3, 4, 5)
            )
            + tuple(
                ModelSpec.of("feinting-bound", trefi_per_mitigation=k,
                             periods=512)
                for k in (1, 2, 3, 4, 5)
            ),
        ),
        ModelSweepSpec(
            name="table3",
            description="Baseline system configuration (Table 3)",
            models=(ModelSpec.of("system-config"),),
        ),
        ModelSweepSpec(
            name="table4",
            description="Generator characteristics of every Table 4 "
            "workload",
            models=_workload_stats_models(),
        ),
        ModelSweepSpec(
            name="sec65-storage",
            description="MOAT SRAM budget at levels 1/2/4 "
            "(Section 6.5 / Appendix D)",
            models=tuple(
                ModelSpec.of("moat-sram", level=level) for level in (1, 2, 4)
            ),
        ),
        ModelSweepSpec(
            name="sec71",
            description="Continuous-ALERT throughput model per level "
            "plus the stall-only kernel model (Section 7.1/7.2)",
            models=tuple(
                ModelSpec.of("throughput-model", level=level)
                for level in (1, 2, 4)
            )
            + (ModelSpec.of("kernel-model", ath=64),),
        ),
    )
}
