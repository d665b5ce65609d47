"""Declarative mitigation-policy specifications.

The performance front-end and the sweep runner describe a policy as a
:class:`PolicySpec` — a picklable ``(kind, params)`` pair — instead of
a factory closure, so run configurations can cross process boundaries
(``ProcessPoolExecutor`` workers), be hashed into cache keys, and be
serialized into sweep artifacts. :meth:`PolicySpec.make_factory` turns
a spec back into the zero-argument per-bank factory the simulator
expects, resolving run-level parameters (ATH, ETH, ABO level, seed)
from the run configuration at build time.

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

import functools
import inspect
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.mitigations.base import MitigationPolicy
from repro.mitigations.graphene import make_graphene
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy
from repro.mitigations.panopticon import PanopticonPolicy
from repro.mitigations.para import ParaPolicy
from repro.mitigations.trr import TrrTracker
from repro.mitigations.victim_counter import VictimCounterPolicy


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


#: A builder maps (run params, per-bank instance index, spec params)
#: to a fresh policy instance; its parameters after ``run`` and
#: ``index`` are the kind's spec parameters (``None``: from the run).
PolicyBuilder = Callable[..., MitigationPolicy]


@dataclass(frozen=True)
class _PolicyKind:
    name: str
    builder: PolicyBuilder
    #: Default REF periods per completed proactive mitigation.
    trefi_per_mitigation: int
    #: One-line description surfaced by ``repro perf --list-policies``.
    description: str = ""

    @functools.cached_property
    def param_names(self) -> Tuple[str, ...]:
        """Spec parameter names, from the builder's signature."""
        return tuple(inspect.signature(self.builder).parameters)[2:]


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


_REGISTRY: Dict[str, _PolicyKind] = {
    kind.name: kind
    for kind in (
        _PolicyKind(
            "moat", _build_moat, 5,
            "dual-threshold per-row counters, one tracked entry (paper §4)",
        ),
        _PolicyKind(
            "panopticon", _build_panopticon, 4,
            "queue-on-threshold per-row counters (paper §2.5)",
        ),
        _PolicyKind(
            "para", _build_para, 1,
            "probabilistic adjacent-row refresh, stateless",
        ),
        _PolicyKind(
            "trr", _build_trr, 1,
            "DDR4-era Misra-Gries SRAM tracker (16 entries)",
        ),
        _PolicyKind(
            "graphene", _build_graphene, 1,
            "securely sized Misra-Gries tracker (Figure 1a corner)",
        ),
        _PolicyKind(
            "victim-counter", _build_victim_counter, 5,
            "TRR-Ideal per-victim disturbance counters (paper §8)",
        ),
        _PolicyKind(
            "null", _build_null, 0,
            "unprotected baseline (no tracking, no mitigation)",
        ),
    )
}


def policy_kinds() -> Tuple[str, ...]:
    """Registered policy kind names."""
    return tuple(_REGISTRY)


def policy_descriptions() -> Dict[str, Dict[str, object]]:
    """Registry-driven summary for CLI listings: ``{kind: {...}}``.

    The CLI renders this directly, so help output can never drift from
    the registry contents.
    """
    return {
        kind.name: {
            "description": kind.description,
            "trefi_per_mitigation": kind.trefi_per_mitigation,
        }
        for kind in _REGISTRY.values()
    }


@dataclass(frozen=True)
class PolicySpec:
    """Declarative, hashable, picklable policy description.

    ``params`` is a sorted tuple of ``(name, value)`` pairs so two
    specs with the same parameters compare (and hash) equal regardless
    of construction order. Use :meth:`of` to build one from kwargs.
    Parameter names are validated against the builder signature.
    """

    kind: str = "moat"
    params: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _REGISTRY:
            raise ValueError(
                f"unknown policy kind {self.kind!r}; "
                f"known: {', '.join(sorted(_REGISTRY))}"
            )
        allowed = _REGISTRY[self.kind].param_names
        for name, _ in self.params:
            if name not in allowed:
                raise ValueError(
                    f"policy {self.kind!r} has no parameter {name!r}; "
                    f"known: {', '.join(sorted(allowed)) or '(none)'}"
                )
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @staticmethod
    def of(kind: str, **params: Any) -> "PolicySpec":
        return PolicySpec(kind, tuple(sorted(params.items())))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def default_trefi_per_mitigation(self) -> int:
        return _REGISTRY[self.kind].trefi_per_mitigation

    def display_name(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def make_factory(self, run: RunParams) -> Callable[[], MitigationPolicy]:
        """Zero-argument per-bank policy factory for the simulator.

        Successive calls get increasing instance indices, so stateful
        randomness (PARA) stays deterministic per bank.
        """
        kind = _REGISTRY[self.kind]
        params = self.param_dict()
        counter = iter(range(1 << 30))

        def factory() -> MitigationPolicy:
            return kind.builder(run, next(counter), **params)

        return factory
