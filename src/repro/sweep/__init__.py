"""Parallel experiment orchestration for the reproduction harness.

``repro.sweep`` turns the one-off per-figure pytest drivers into a
declarative, cacheable, parallel evaluation backbone:

* :mod:`repro.sweep.spec` — grid specs over workload x ATH x ETH x ABO
  level x mitigation policy, with named presets for every paper
  figure/table (``fig11``, ``fig17``, ``table5``, ``table6``,
  ``table7``, ``ablation``).
* :mod:`repro.sweep.attack_spec` — attack grids over
  :class:`~repro.attacks.registry.AttackSpec` x sub-channels, with
  named presets for every paper security figure (``fig5``, ``fig10``,
  ``fig13``, ``tsa``, ``feinting``, ``postponement``).
* :mod:`repro.sweep.system_spec` — named multi-client, multi-channel
  system scenarios (``system-smoke``, ``system-shard``,
  ``system-noisy``) over :class:`~repro.system.sim.SystemRunConfig`.
* :mod:`repro.sweep.runner` — the one :class:`PointResult`/
  :class:`SweepResult` pair and the ``ProcessPoolExecutor``-based
  :func:`~repro.sweep.runner.run_grid` every family runs through, with
  per-point result caching keyed on a config hash and stamped with a
  source fingerprint, deterministic seeding (parallel == serial), and
  resume-on-rerun. Each ``*_runner`` module adds only its family's
  point executor.
* :mod:`repro.sweep.artifacts` — ``BENCH_*.json`` artifact IO and
  baseline diffing for CI gating (``repro sweep <preset> --check``,
  ``repro attack sweep <preset> --check``).
* :mod:`repro.sweep.family` — the :class:`~repro.sweep.family.
  SweepFamily` registry tying each family's spec class, presets,
  runner, schema, gated metrics, aggregates, and baseline prefix into
  one table (the CLI, report pipeline, and artifact builder derive
  from it).
"""

from repro.sweep.artifacts import diff_artifacts, load_artifact, write_artifact
from repro.sweep.attack_runner import run_attack_sweep
from repro.sweep.attack_spec import (
    ATTACK_PRESETS,
    AttackSweepPoint,
    AttackSweepSpec,
    attack_preset,
)
from repro.sweep.runner import PointResult, SweepResult, run_sweep
from repro.sweep.spec import (
    PRESETS,
    SWEEP_WORKLOADS,
    SweepPoint,
    SweepSpec,
    preset,
)
from repro.sweep.system_runner import run_system_sweep
from repro.sweep.system_spec import (
    SYSTEM_PRESETS,
    SystemSweepPoint,
    SystemSweepSpec,
    system_preset,
)

# Last: the registry imports every family's spec/runner modules above.
from repro.sweep.family import (
    FAMILIES,
    SweepFamily,
    get_family,
)

__all__ = [
    "ATTACK_PRESETS",
    "FAMILIES",
    "PRESETS",
    "SWEEP_WORKLOADS",
    "SYSTEM_PRESETS",
    "AttackSweepPoint",
    "AttackSweepSpec",
    "PointResult",
    "SweepFamily",
    "SweepPoint",
    "SweepResult",
    "SweepSpec",
    "SystemSweepPoint",
    "SystemSweepSpec",
    "attack_preset",
    "diff_artifacts",
    "get_family",
    "load_artifact",
    "preset",
    "run_attack_sweep",
    "run_sweep",
    "run_system_sweep",
    "system_preset",
    "write_artifact",
]
