"""Attack patterns from the paper.

* :mod:`repro.attacks.jailbreak` — breaks Panopticon (Section 3).
* :mod:`repro.attacks.feinting` — bounds transparent per-row schemes
  (Section 2.5, Table 2).
* :mod:`repro.attacks.ratchet` — exploits delayed ALERTs (Section 5).
* :mod:`repro.attacks.kernels` — basic performance-attack kernels
  (Section 7.2, Figure 13).
* :mod:`repro.attacks.tsa` — Torrent-of-Staggered-ALERT (Section 7.3).
* :mod:`repro.attacks.postponement` — refresh-postponement attack on the
  drain-all Panopticon variant (Appendix B, Figure 16).
* :mod:`repro.attacks.trespass` — many-aggressor thrashing of low-cost
  SRAM trackers (Section 2.4 motivation).
* :mod:`repro.attacks.registry` — the :data:`ATTACK_KINDS` registry,
  declarative :class:`AttackSpec` descriptions of the above for the
  sweep/orchestration stack, and the ``run_attack`` front-end.

Every attack drives a :class:`~repro.sim.channel.ChannelSim` built from
a shared :class:`~repro.attacks.base.AttackRunConfig`, the only source
of its geometry.
"""

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    MitigationLog,
    subscribed,
)
from repro.attacks.feinting import run_feinting
from repro.attacks.jailbreak import (
    run_deterministic_jailbreak,
    run_randomized_jailbreak_iteration,
    randomized_jailbreak_curve,
)
from repro.attacks.kernels import run_single_row_kernel, run_multi_row_kernel
from repro.attacks.postponement import run_postponement_attack
from repro.attacks.ratchet import run_ratchet, ratchet_growth_curve
from repro.attacks.registry import ATTACK_KINDS, AttackSpec, run_attack
from repro.attacks.trespass import run_many_aggressor_attack
from repro.attacks.tsa import run_tsa

__all__ = [
    "ATTACK_KINDS",
    "AttackResult",
    "AttackRunConfig",
    "AttackSpec",
    "MitigationLog",
    "run_attack",
    "subscribed",
    "run_feinting",
    "run_deterministic_jailbreak",
    "run_randomized_jailbreak_iteration",
    "randomized_jailbreak_curve",
    "run_single_row_kernel",
    "run_multi_row_kernel",
    "run_postponement_attack",
    "run_ratchet",
    "ratchet_growth_curve",
    "run_many_aggressor_attack",
    "run_tsa",
]
