"""Declarative mitigation-policy specifications.

The performance front-end and the sweep runner describe a policy as a
:class:`PolicySpec` — a picklable ``(kind, params)``
:class:`~repro.registry.KindSpec` over :data:`POLICY_KINDS` — instead
of a factory closure, so run configurations can cross process
boundaries (``ProcessPoolExecutor`` workers), be hashed into cache
keys, and be serialized into sweep artifacts. A kind's spec parameters
are its builder's parameters after ``run`` and ``index``.
:meth:`PolicySpec.make_factory` turns a spec back into the
zero-argument per-bank factory the simulator expects, resolving
run-level parameters (ATH, ETH, ABO level, seed) from the run
configuration at build time.

Registered kinds and their run-parameter mapping:

========== ============================================================
``moat``       ``MoatPolicy(ath, eth, level)`` from the run config.
``panopticon`` ``PanopticonPolicy``; ``queue_threshold`` defaults to
               the largest power of two <= ATH.
``para``       ``ParaPolicy``; per-bank RNG derived from the run seed.
``trr``        ``TrrTracker``; ``mitigation_threshold`` defaults to
               ETH (the proactive-eligibility threshold).
``graphene``   Securely sized Misra-Gries tracker for ``trh``
               (default ``2 * ath``).
``victim-counter`` ``VictimCounterPolicy``; proactive threshold ETH.
``null``       ``NullPolicy`` (unprotected baseline).
========== ============================================================

Each kind also carries the proactive-mitigation cadence it needs
(``trefi_per_mitigation``): 5 for MOAT (4 victim refreshes plus the
counter-reset ACT), 4 for Panopticon, 1 for the inline/streaming
designs, 0 (disabled) for the null baseline.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.mitigations.base import MitigationPolicy
from repro.mitigations.graphene import make_graphene
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.mitigations.panopticon import PanopticonPolicy
from repro.mitigations.para import ParaPolicy
from repro.mitigations.trr import TrrTracker
from repro.mitigations.victim_counter import VictimCounterPolicy
from repro.registry import Kind, KindSpec, Registry


@dataclass(frozen=True)
class RunParams:
    """Run-level parameters a policy builder may consume.

    Decouples the registry from the perf front-end's ``RunConfig``
    (which also carries simulation-scale knobs the builders never
    read).
    """

    ath: int = 64
    eth: int = 32
    abo_level: int = 1
    seed: int = 0
    timing: Any = None


def _build_moat(run: RunParams, index: int, ath: Optional[int] = None,
                eth: Optional[int] = None,
                level: Optional[int] = None) -> MitigationPolicy:
    return MoatPolicy(
        ath=run.ath if ath is None else ath,
        eth=run.eth if eth is None else eth,
        level=run.abo_level if level is None else level,
    )


def _floor_pow2(value: int) -> int:
    return 1 << (max(1, value).bit_length() - 1)


def _build_panopticon(run: RunParams, index: int,
                      queue_threshold: Optional[int] = None,
                      queue_entries: int = 8,
                      drain_all_on_ref: bool = False) -> MitigationPolicy:
    return PanopticonPolicy(
        queue_threshold=(_floor_pow2(run.ath) if queue_threshold is None
                         else queue_threshold),
        queue_entries=queue_entries,
        drain_all_on_ref=drain_all_on_ref,
    )


def _build_para(run: RunParams, index: int,
                probability: float = 0.001) -> MitigationPolicy:
    # Deterministic per-bank stream: same (seed, bank index) => same
    # mitigation choices, independent of execution order or process.
    rng = random.Random((run.seed + 1) * 0x9E3779B9 + index)
    return ParaPolicy(probability=probability, rng=rng)


def _build_trr(run: RunParams, index: int, entries: int = 16,
               mitigation_threshold: Optional[int] = None) -> MitigationPolicy:
    return TrrTracker(
        entries=entries,
        mitigation_threshold=(max(1, run.eth) if mitigation_threshold is None
                              else mitigation_threshold),
    )


def _build_graphene(run: RunParams, index: int,
                    trh: Optional[int] = None) -> MitigationPolicy:
    kwargs: Dict[str, Any] = {"trh": 2 * run.ath if trh is None else trh}
    if run.timing is not None:
        kwargs["timing"] = run.timing
    return make_graphene(**kwargs)


def _build_victim_counter(run: RunParams, index: int, blast_radius: int = 2,
                          eth: Optional[int] = None) -> MitigationPolicy:
    return VictimCounterPolicy(
        blast_radius=blast_radius,
        eth=run.eth if eth is None else eth,
    )


def _build_null(run: RunParams, index: int) -> MitigationPolicy:
    return NullPolicy()


#: What a builder's caller binds: the run parameters and the per-bank
#: instance index. The rest are spec parameters (``None``: from the
#: run).
_BOUND = ("run", "index")

#: Registered policies; ``trefi_per_mitigation`` is each kind's
#: default REF periods per completed proactive mitigation.
POLICY_KINDS = Registry("policy", (
    Kind("moat", _build_moat,
         "dual-threshold per-row counters, one tracked entry (paper §4)",
         _BOUND, trefi_per_mitigation=5),
    Kind("panopticon", _build_panopticon,
         "queue-on-threshold per-row counters (paper §2.5)",
         _BOUND, trefi_per_mitigation=4),
    Kind("para", _build_para,
         "probabilistic adjacent-row refresh, stateless",
         _BOUND, trefi_per_mitigation=1),
    Kind("trr", _build_trr,
         "DDR4-era Misra-Gries SRAM tracker (16 entries)",
         _BOUND, trefi_per_mitigation=1),
    Kind("graphene", _build_graphene,
         "securely sized Misra-Gries tracker (Figure 1a corner)",
         _BOUND, trefi_per_mitigation=1),
    Kind("victim-counter", _build_victim_counter,
         "TRR-Ideal per-victim disturbance counters (paper §8)",
         _BOUND, trefi_per_mitigation=5),
    Kind("null", _build_null,
         "unprotected baseline (no tracking, no mitigation)",
         _BOUND, trefi_per_mitigation=0),
))


@dataclass(frozen=True)
class PolicySpec(KindSpec):
    """Declarative, hashable, picklable policy description."""

    kind: str = "moat"

    registry = POLICY_KINDS

    @property
    def default_trefi_per_mitigation(self) -> int:
        return POLICY_KINDS[self.kind].fields["trefi_per_mitigation"]

    def make_factory(self, run: RunParams) -> Callable[[], MitigationPolicy]:
        """Zero-argument per-bank policy factory for the simulator.

        Successive calls get increasing instance indices, so stateful
        randomness (PARA) stays deterministic per bank.
        """
        builder = POLICY_KINDS[self.kind].call
        params = self.param_dict()
        counter = iter(range(1 << 30))

        def factory() -> MitigationPolicy:
            return builder(run, next(counter), **params)

        return factory
