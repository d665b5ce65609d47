"""Declarative memory-controller sweep specifications and presets.

The closed-loop analogue of :mod:`repro.sweep.spec`: an
:class:`McSweepSpec` is the cross product of its axes (arrival
workloads, policies, ATH, ABO level, queue depth, scheduler, row
policy); expanding it yields one :class:`McSweepPoint` per cell, each
carrying a complete :class:`~repro.sim.mc.McRunConfig` plus a stable
key and a content hash — the identity used by the shared point cache
and by the ``BENCH_mc.json`` baseline gate (schema ``repro.mc/v1``),
following the conventions of :mod:`repro.sweep.identity`.

:data:`MC_PRESETS` names the scenario grids: the CI smoke gate, the
ABO-level latency staircase (the queueing effect the stall-fraction
substitution cannot express), a load sweep, the policy ablation, and
the scheduler/row-policy matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mitigations.registry import PolicySpec
from repro.sim.mc import McRunConfig
from repro.sweep.identity import (
    SweepSpecBase, canonical, lookup_preset, point_hash, strip_neutral,
    unique_by_key, workload_payload,
)
from repro.workloads.requests import McWorkload

#: Additive axes mapped to their neutral value (see
#: :mod:`repro.sweep.identity`): ``sched_params`` landed with the
#: pluggable scheduling layer, and its empty spelling (the kind's
#: defaults, which is what every pre-existing point ran) hashes out so
#: all committed baselines and cache entries survive. ``canonical``
#: renders the tuple-of-pairs as a JSON list, hence the ``[]``.
_NEUTRAL_AXES: Dict[str, Any] = {"sched_params": []}


@dataclass(frozen=True)
class McSweepPoint:
    """One grid cell: a complete closed-loop run configuration."""

    config: McRunConfig

    @property
    def key(self) -> str:
        """Stable human-readable identity (artifact/baseline key)."""
        c = self.config
        depth = "inf" if c.queue_depth is None else str(c.queue_depth)
        sc = f"|sc={c.subchannels}" if c.subchannels != 1 else ""
        return (
            f"{c.workload.display_name()}|{c.policy.display_name()}"
            f"|ath={c.ath}|eth={c.eth_resolved}|L{c.abo_level}"
            f"|tpm={c.trefi_per_mitigation_resolved}"
            f"|{c.sched_display()}|{c.row_policy}|qd={depth}"
            f"{sc}|b{c.banks}|trefi={c.n_trefi}|seed={c.seed}"
        )

    def config_hash(self) -> str:
        """Content hash of everything that determines the result.

        ETH and the proactive cadence hash at their resolved values,
        the workload's dead burst knobs at their defaults, and
        :data:`_NEUTRAL_AXES` hash out (see :mod:`repro.sweep.identity`).
        """
        config = canonical(self.config)
        config["eth"] = self.config.eth_resolved
        config["trefi_per_mitigation"] = (
            self.config.trefi_per_mitigation_resolved
        )
        config["workload"] = workload_payload(self.config.workload)
        return point_hash(config=strip_neutral(config, _NEUTRAL_AXES))


@dataclass(frozen=True)
class McSweepSpec(SweepSpecBase):
    """Grid of closed-loop runs (cross product of the axis fields)."""

    # The arrival mixes name no Table 4 workload.
    _OVERRIDES = ("n_trefi", "seed")

    name: str
    description: str = ""
    workloads: Tuple[McWorkload, ...] = (McWorkload(),)
    policies: Tuple[PolicySpec, ...] = (PolicySpec(),)
    ath: Tuple[int, ...] = (64,)
    abo_level: Tuple[int, ...] = (1,)
    queue_depth: Tuple[Optional[int], ...] = (32,)
    scheduler: Tuple[str, ...] = ("frfcfs",)
    row_policy: Tuple[str, ...] = ("closed",)
    subchannels: int = 1
    banks: int = 4
    n_trefi: int = 512
    seed: int = 0

    def points(self) -> List[McSweepPoint]:
        """Expand the grid in deterministic order, deduplicated by key."""
        return unique_by_key(
            McSweepPoint(
                config=McRunConfig(
                    ath=ath,
                    abo_level=level,
                    policy=policy,
                    workload=workload,
                    queue_depth=depth,
                    scheduler=sched,
                    row_policy=row,
                    subchannels=self.subchannels,
                    banks=self.banks,
                    n_trefi=self.n_trefi,
                    seed=self.seed,
                )
            )
            for workload, policy, ath, level, depth, sched, row in (
                itertools.product(
                    self.workloads,
                    self.policies,
                    self.ath,
                    self.abo_level,
                    self.queue_depth,
                    self.scheduler,
                    self.row_policy,
                )
            )
        )


#: A request mix hot enough that MOAT's thresholds are exercised: half
#: the stream hammers a 4-row set per bank, which at ATH=32 drives a
#: steady ALERT rate — the regime where ABO recovery dominates the
#: latency tail.
HAMMER_WORKLOAD = McWorkload(
    reads_per_trefi_per_bank=40.0, hot_fraction=0.5, hot_rows=4
)

MC_PRESETS: Dict[str, McSweepSpec] = {
    spec.name: spec
    for spec in (
        McSweepSpec(
            name="mc-smoke",
            description="CI smoke gate: MOAT and the unprotected "
            "baseline under Poisson and bursty arrivals",
            workloads=(
                McWorkload(reads_per_trefi_per_bank=24.0),
                McWorkload(process="bursty", reads_per_trefi_per_bank=24.0),
            ),
            policies=(PolicySpec("moat"), PolicySpec("null")),
            banks=2,
        ),
        McSweepSpec(
            name="mc-abo",
            description="ABO-level latency staircase: p99 read latency "
            "vs recovery level 1/2/4 at a fixed hammer-heavy arrival "
            "rate (MOAT vs unprotected)",
            workloads=(HAMMER_WORKLOAD,),
            policies=(PolicySpec("moat"), PolicySpec("null")),
            ath=(32,),
            abo_level=(1, 2, 4),
        ),
        McSweepSpec(
            name="mc-rate",
            description="Load sweep: latency and bandwidth vs Poisson "
            "arrival rate toward bank saturation",
            workloads=tuple(
                McWorkload(reads_per_trefi_per_bank=rate,
                           hot_fraction=0.25, hot_rows=8)
                for rate in (8.0, 24.0, 40.0, 56.0)
            ),
            policies=(PolicySpec("moat"), PolicySpec("null")),
        ),
        McSweepSpec(
            name="mc-policy",
            description="Closed-loop policy ablation: every registered "
            "mitigation under the hammer-heavy mix at ATH=32",
            workloads=(HAMMER_WORKLOAD,),
            policies=(
                PolicySpec("moat"),
                PolicySpec("panopticon"),
                PolicySpec("para"),
                PolicySpec("trr"),
                PolicySpec("graphene"),
                PolicySpec("victim-counter"),
                PolicySpec("null"),
            ),
            ath=(32,),
        ),
        McSweepSpec(
            name="mc-sched",
            description="Scheduler x row-buffer matrix: FCFS vs "
            "FR-FCFS under closed and open page policies",
            workloads=(
                McWorkload(reads_per_trefi_per_bank=40.0,
                           hot_fraction=0.5, hot_rows=8),
            ),
            policies=(PolicySpec("moat"),),
            scheduler=("fcfs", "frfcfs"),
            row_policy=("closed", "open"),
        ),
    )
}


def mc_preset(name: str) -> McSweepSpec:
    """Look up an mc preset by name with a helpful error."""
    return lookup_preset(MC_PRESETS, "mc", name)
