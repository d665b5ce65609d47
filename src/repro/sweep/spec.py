"""Declarative sweep specifications and named presets.

A :class:`SweepSpec` is the cross product of its axes (workloads, ATH,
ETH, ABO level, proactive cadence, mitigation policy); expanding it
yields one :class:`SweepPoint` per grid cell, each carrying a complete
:class:`~repro.sim.perf.RunConfig` plus a stable human-readable key
and a content hash. The hash covers everything that determines the
simulated outcome, so it doubles as the cache key of the parallel
runner and as the identity check when diffing artifacts against a
committed baseline.

:data:`PRESETS` names a spec for every paper figure/table the
benchmark harness reproduces.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mitigations.registry import PolicySpec
from repro.sim.perf import RunConfig
from repro.workloads.profiles import TABLE4_PROFILES, profile_by_name

#: Representative subset for the parameter-sweep tables (the hottest
#: workloads plus quiet controls); the figure presets use all 21.
SWEEP_WORKLOADS: Tuple[str, ...] = (
    "roms",
    "parest",
    "xz",
    "lbm",
    "mcf",
    "cactuBSSN",
    "bwaves",
    "sssp",
    "tc",
)

ALL_WORKLOADS: Tuple[str, ...] = tuple(p.name for p in TABLE4_PROFILES)

#: Part of every sweep point's config hash; bump it only to retire the
#: committed baselines on a deliberate semantic change (the point cache
#: already recomputes after any code change, see ``source_fingerprint``).
RESULT_VERSION = 1

#: Axes added after the first baselines were committed, mapped to the
#: neutral value at which they leave the simulation unchanged. A config
#: whose axis sits at the neutral value hashes (and keys) identically
#: to a config predating the axis.
_NEUTRAL_AXES = {"subchannels": 1}


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a workload name plus its full run config."""

    workload: str
    config: RunConfig

    @property
    def key(self) -> str:
        """Stable human-readable identity (artifact/baseline key).

        Like :meth:`config_hash`, additive axes only appear at
        non-neutral values, so pre-existing baseline keys stay valid.
        """
        c = self.config
        sc = f"|sc={c.subchannels}" if c.subchannels != 1 else ""
        return (
            f"{self.workload}|{c.policy.display_name()}"
            f"|ath={c.ath}|eth={c.eth_resolved}|L{c.abo_level}"
            f"|tpm={c.trefi_per_mitigation_resolved}"
            f"{sc}|trefi={c.n_trefi}|seed={c.seed}"
        )

    def config_hash(self) -> str:
        """Content hash of everything that determines the result.

        Optional fields are hashed at their *resolved* values (ETH
        defaulting to ATH/2, the proactive cadence to the policy's
        native rate), so a point spelled ``eth=None`` and one spelled
        ``eth=32`` — identical simulations — share one cache entry and
        one baseline identity, matching the resolved point key.

        Additive axes hash out at their neutral value (see
        :data:`_NEUTRAL_AXES`): a ``subchannels=1`` run is the same
        simulation the pre-channel engine performed, so it must keep
        the same identity — that is what lets committed baselines and
        cached points survive the axis being introduced, and what makes
        the baseline gate double as a bit-identity check across the
        refactor.
        """
        config = _canonical(self.config)
        config["eth"] = self.config.eth_resolved
        config["trefi_per_mitigation"] = self.config.trefi_per_mitigation_resolved
        for name, neutral in _NEUTRAL_AXES.items():
            if config.get(name) == neutral:
                del config[name]
        payload = {
            "version": RESULT_VERSION,
            "workload": self.workload,
            "config": config,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _canonical(value: Any) -> Any:
    """JSON-stable view of nested dataclasses / tuples."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Grid of performance runs (cross product of the axis fields)."""

    name: str
    description: str = ""
    workloads: Tuple[str, ...] = SWEEP_WORKLOADS
    ath: Tuple[int, ...] = (64,)
    eth: Tuple[Optional[int], ...] = (None,)
    abo_level: Tuple[int, ...] = (1,)
    trefi_per_mitigation: Tuple[Optional[int], ...] = (None,)
    policies: Tuple[PolicySpec, ...] = (PolicySpec(),)
    #: Sub-channels per simulated channel (the ChannelSim axis).
    subchannels: Tuple[int, ...] = (1,)
    n_trefi: int = 8192
    seed: int = 0
    model_cross_bank_service: bool = True

    def __post_init__(self) -> None:
        for workload in self.workloads:
            profile_by_name(workload)  # raises on unknown names

    def points(self) -> List[SweepPoint]:
        """Expand the grid in deterministic order.

        Cells that resolve to the same simulation (e.g. ``eth=None``
        and ``eth=ath//2`` in one grid) are deduplicated by key so the
        artifact's point map stays one-to-one with the work performed.
        """
        out: List[SweepPoint] = []
        seen: set = set()
        for workload, policy, ath, eth, level, tpm, sc in itertools.product(
            self.workloads,
            self.policies,
            self.ath,
            self.eth,
            self.abo_level,
            self.trefi_per_mitigation,
            self.subchannels,
        ):
            config = RunConfig(
                ath=ath,
                eth=eth,
                abo_level=level,
                policy=policy,
                trefi_per_mitigation=tpm,
                subchannels=sc,
                n_trefi=self.n_trefi,
                seed=self.seed,
                model_cross_bank_service=self.model_cross_bank_service,
            )
            point = SweepPoint(workload=workload, config=config)
            if point.key not in seen:
                seen.add(point.key)
                out.append(point)
        return out

    def sweep_hash(self) -> str:
        """Identity of the whole grid (order-independent)."""
        hashes = sorted(p.config_hash() for p in self.points())
        blob = json.dumps([self.name, hashes], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def with_overrides(
        self,
        n_trefi: Optional[int] = None,
        seed: Optional[int] = None,
        workloads: Optional[Tuple[str, ...]] = None,
    ) -> "SweepSpec":
        """Copy with cheap-scale / subset overrides (CLI flags)."""
        changes: Dict[str, Any] = {}
        if n_trefi is not None:
            changes["n_trefi"] = n_trefi
        if seed is not None:
            changes["seed"] = seed
        if workloads is not None:
            changes["workloads"] = tuple(workloads)
        return dataclasses.replace(self, **changes) if changes else self


#: Policies compared in the ablation preset: MOAT against every other
#: implemented design, at the run's ATH/ETH where applicable.
ABLATION_POLICIES: Tuple[PolicySpec, ...] = (
    PolicySpec("moat"),
    PolicySpec("panopticon"),
    PolicySpec.of("panopticon", drain_all_on_ref=True),
    PolicySpec("para"),
    PolicySpec("trr"),
    PolicySpec("graphene"),
    PolicySpec("victim-counter"),
    PolicySpec("null"),
)


PRESETS: Dict[str, SweepSpec] = {
    spec.name: spec
    for spec in (
        SweepSpec(
            name="fig11",
            description="MOAT per-workload performance and ALERT rate "
            "at ATH=64 and ATH=128 (Figure 11)",
            workloads=ALL_WORKLOADS,
            ath=(64, 128),
        ),
        SweepSpec(
            name="fig17",
            description="MOAT-L1/L2/L4 performance and ALERT rate at "
            "ATH=64 (Figure 17 / Appendix D)",
            workloads=ALL_WORKLOADS,
            abo_level=(1, 2, 4),
        ),
        SweepSpec(
            name="table5",
            description="ETH sweep at ATH=64: mitigation volume vs "
            "slowdown (Table 5)",
            eth=(0, 16, 32, 48),
        ),
        SweepSpec(
            name="table6",
            description="Proactive mitigation rate sweep at ATH=64 "
            "(Table 6 / Appendix C; 0 = ALERT-only)",
            trefi_per_mitigation=(1, 3, 5, 10, 0),
        ),
        SweepSpec(
            name="table7",
            description="ATH x ABO-level slowdown grid (Table 7)",
            ath=(32, 64, 128),
            abo_level=(1, 2, 4),
        ),
        SweepSpec(
            name="ablation",
            description="Every implemented mitigation policy on the "
            "sweep workload subset at ATH=64",
            policies=ABLATION_POLICIES,
        ),
        SweepSpec(
            name="sec65",
            description="MOAT at ATH=64 on the sweep subset: the "
            "activation-overhead source for the Section 6.5 energy "
            "numbers",
        ),
        SweepSpec(
            name="channel",
            description="Channel-hierarchy scaling: the sweep subset "
            "through ChannelSim at 1 and 2 sub-channels",
            subchannels=(1, 2),
        ),
    )
}


def preset(name: str) -> SweepSpec:
    """Look up a preset by name with a helpful error."""
    try:
        return PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise KeyError(f"unknown sweep preset {name!r}; known: {known}") from None
