"""Declarative attack specifications.

The security-evaluation front-end and the attack sweep runner describe
an attack as an :class:`AttackSpec` — a picklable ``(kind, params)``
:class:`~repro.registry.KindSpec` over :data:`ATTACK_KINDS` — so
attack runs can cross process boundaries, be hashed into cache keys,
and be serialized into ``BENCH_attack.json`` artifacts.
:func:`run_attack` executes one through the channel → sub-channel →
bank hierarchy (:class:`~repro.sim.channel.ChannelSim`).

Registered kinds, their entry points, and the paper results they drive:

=============== =====================================================
``jailbreak``     :func:`~repro.attacks.jailbreak.run_deterministic_jailbreak`
                  (Figure 5, Section 3.2).
``jailbreak-randomized``
                  :func:`~repro.attacks.jailbreak.run_randomized_jailbreak_iteration`
                  (Figure 5, Section 3.3).
``ratchet``       :func:`~repro.attacks.ratchet.run_ratchet`
                  (Figure 10, Section 5).
``feinting``      :func:`~repro.attacks.feinting.run_feinting`
                  (Table 2, Section 2.5).
``postponement``  :func:`~repro.attacks.postponement.run_postponement_attack`
                  (Figure 16, Appendix B).
``tsa``           :func:`~repro.attacks.tsa.run_tsa`
                  (Figure 12, Section 7.3).
``kernel-single`` :func:`~repro.attacks.kernels.run_single_row_kernel`
                  (Figure 13, Section 7.2).
``kernel-multi``  :func:`~repro.attacks.kernels.run_multi_row_kernel`
                  (Figure 13, Section 7.2).
``trespass``      :func:`~repro.attacks.trespass.run_many_aggressor_attack`
                  (Section 2.4 motivation).
=============== =====================================================

Every runner takes the shared geometry (rows per bank, refresh groups,
sub-channels, timing) from an
:class:`~repro.attacks.base.AttackRunConfig` (``run=`` keyword) and
from nowhere else; its remaining keywords are the spec parameters,
validated at spec-construction time against the runner signature, so
a typo'd parameter fails before any simulation starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.attacks.base import AttackResult, AttackRunConfig
from repro.attacks.feinting import run_feinting
from repro.attacks.jailbreak import (
    run_deterministic_jailbreak,
    run_randomized_jailbreak_iteration,
)
from repro.attacks.kernels import run_multi_row_kernel, run_single_row_kernel
from repro.attacks.postponement import run_postponement_attack
from repro.attacks.ratchet import run_ratchet
from repro.attacks.trespass import run_many_aggressor_attack
from repro.attacks.tsa import run_tsa
from repro.registry import Kind, KindSpec, Registry

#: What a runner's caller binds: the shared run config.
_BOUND = ("run",)

#: Registered attacks. ``figure`` is the paper artifact each one
#: reproduces; ``adaptive`` says whether its pattern adapts to defense
#: state (per-ACT control) or is open-loop (batchable through
#: ``activate_many``).
ATTACK_KINDS = Registry("attack", (
    Kind("jailbreak", run_deterministic_jailbreak,
         "deterministic queue-camping against Panopticon",
         _BOUND, figure="Figure 5", adaptive=True),
    Kind("jailbreak-randomized", run_randomized_jailbreak_iteration,
         "one fully-simulated randomized-Jailbreak iteration "
         "(counters chosen by the caller, so still deterministic)",
         _BOUND, figure="Figure 5", adaptive=True),
    Kind("ratchet", run_ratchet,
         "inter-ALERT ratcheting of a primed pool against MOAT",
         _BOUND, figure="Figure 10", adaptive=True),
    Kind("feinting", run_feinting,
         "harmonic-series feinting against ideal per-row counters",
         _BOUND, figure="Table 2", adaptive=True),
    Kind("postponement", run_postponement_attack,
         "REF-postponement window against drain-all Panopticon",
         _BOUND, figure="Figure 16", adaptive=True),
    Kind("tsa", run_tsa,
         "torrent of staggered ALERTs across banks vs MOAT",
         _BOUND, figure="Figure 12", adaptive=True),
    Kind("kernel-single", run_single_row_kernel,
         "(A)^N single-row throughput kernel vs MOAT",
         _BOUND, figure="Figure 13", adaptive=False),
    Kind("kernel-multi", run_multi_row_kernel,
         "(ABCDE)^N multi-row throughput kernel vs MOAT",
         _BOUND, figure="Figure 13", adaptive=False),
    Kind("trespass", run_many_aggressor_attack,
         "many-aggressor thrashing of a few-entry TRR tracker",
         _BOUND, figure="Section 2.4", adaptive=False),
))


@dataclass(frozen=True)
class AttackSpec(KindSpec):
    """Declarative, hashable, picklable attack description."""

    kind: str = "jailbreak"

    registry = ATTACK_KINDS

    @property
    def adaptive(self) -> bool:
        return ATTACK_KINDS[self.kind].fields["adaptive"]

    @property
    def figure(self) -> str:
        return ATTACK_KINDS[self.kind].fields["figure"]

    def execute(self, run: Optional[AttackRunConfig] = None) -> AttackResult:
        """Run the attack through the shared ChannelSim front-end."""
        runner = ATTACK_KINDS[self.kind].call
        return runner(run=run or AttackRunConfig(), **self.param_dict())


def run_attack(
    attack: Union[AttackSpec, str],
    run: Optional[AttackRunConfig] = None,
    **params: object,
) -> AttackResult:
    """Execute one attack against its target design.

    Args:
        attack: An :class:`AttackSpec`, or a registered kind name
            (convenience: ``run_attack("ratchet", pool_size=16)``).
        run: Shared run configuration; defaults to the paper geometry
            at one sub-channel.
        params: Extra attack parameters merged into the spec (only
            valid with a string ``attack``; a ready spec is immutable).

    Returns:
        The attack's :class:`AttackResult`.
    """
    if isinstance(attack, str):
        spec = AttackSpec.of(attack, **params)
    else:
        if params:
            raise TypeError(
                "params are only accepted with a kind name; "
                "build the AttackSpec with AttackSpec.of(...) instead"
            )
        spec = attack
    return spec.execute(run)
