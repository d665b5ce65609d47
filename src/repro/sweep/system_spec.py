"""Declarative system-sweep specifications and presets.

The system family sweeps *scenarios*, not axis products: each point is
a named, complete :class:`~repro.system.sim.SystemRunConfig` (client
mix, channel count, defense configuration), because the interesting
comparisons — duo vs solo, attacker on vs off, 1 channel vs 4 —
are hand-picked contrasts rather than grids. Structure follows the
model family (explicit scenario tuples); identity follows the mc
family (resolved-value hashing via
:func:`~repro.system.sim.system_config_payload`).

:data:`SYSTEM_PRESETS` names the scenario sets: the CI smoke gate
(solo / contended duo / undefended duo), the sharding scale-out, the
noisy-neighbor contrast whose baseline pins the victim-p99
degradation story, and the QoS matrix that re-runs the noisy cast
under every scheduling policy from the :mod:`repro.mc.sched` registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.attacks.registry import AttackSpec
from repro.mitigations.registry import PolicySpec
from repro.sweep.identity import (
    SweepSpecBase, lookup_preset, point_hash, replace_given, unique_by_key,
)
from repro.system.sim import SystemRunConfig, system_config_payload
from repro.system.crossbar import ClientSpec
from repro.workloads.requests import McWorkload


@dataclass(frozen=True)
class SystemSweepPoint:
    """One named scenario: a complete system run configuration."""

    scenario: str
    config: SystemRunConfig

    @property
    def key(self) -> str:
        """Stable human-readable identity (artifact/baseline key)."""
        c = self.config
        depth = "inf" if c.queue_depth is None else str(c.queue_depth)
        # The scheduler segment appears only for non-default policies,
        # so every pre-QoS key spelling survives verbatim.
        sched = c.sched_display()
        sched_seg = f"|{sched}" if sched != "frfcfs" else ""
        return (
            f"{self.scenario}|{c.display_name()}"
            f"|{c.policy.display_name()}{sched_seg}"
            f"|ath={c.ath}|eth={c.eth_resolved}|L{c.abo_level}"
            f"|ch{c.channels}|qd={depth}|b{c.banks}"
            f"|trefi={c.n_trefi}|seed={c.seed}"
        )

    def config_hash(self) -> str:
        """Content hash of everything that determines the result.

        The config payload is the one the shard cache hashes too
        (:func:`~repro.system.sim.system_config_payload`), so a sweep
        point and its shards agree on identity.
        """
        return point_hash(scenario=self.scenario,
                          config=system_config_payload(self.config))


@dataclass(frozen=True)
class SystemSweepSpec(SweepSpecBase):
    """Named set of system scenarios (explicit, not a cross product)."""

    name: str
    description: str = ""
    scenarios: Tuple[Tuple[str, SystemRunConfig], ...] = ()

    def points(self) -> List[SystemSweepPoint]:
        """Expand the scenarios in declared order, deduplicated by key."""
        return unique_by_key(
            SystemSweepPoint(scenario=scenario, config=config)
            for scenario, config in self.scenarios
        )

    def with_overrides(
        self,
        n_trefi: Optional[int] = None,
        seed: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None,
    ) -> "SystemSweepSpec":
        """Copy with the scale and seed applied to every scenario.
        Scenarios name no Table 4 workload, so ``workloads`` passes
        through."""
        if n_trefi is None and seed is None:
            return self
        return dataclasses.replace(
            self,
            scenarios=tuple(
                (scenario, replace_given(config, n_trefi=n_trefi, seed=seed))
                for scenario, config in self.scenarios
            ),
        )


#: The benign per-client mix of the system presets: moderate load with
#: a warm reuse set, so contention shows up in queue occupancy without
#: saturating the banks outright.
TENANT_WORKLOAD = McWorkload(
    reads_per_trefi_per_bank=24.0, hot_fraction=0.3, hot_rows=8
)

#: Two equal tenants at different crossbar priorities — the minimal
#: contended mix (priority 1 beats priority 0 on simultaneous heads).
DUO_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(name="tenant0", workload=TENANT_WORKLOAD, priority=1),
    ClientSpec(name="tenant1", workload=TENANT_WORKLOAD, seed=1),
)

#: Noisy-neighbor cast: two benign victims plus one client replaying
#: the registered single-row PRAC kernel with a budget large enough to
#: hammer for the whole window.
VICTIM_CLIENTS: Tuple[ClientSpec, ...] = (
    ClientSpec(name="victim0", workload=TENANT_WORKLOAD),
    ClientSpec(name="victim1", workload=TENANT_WORKLOAD, seed=1),
)
ATTACKER_CLIENT = ClientSpec(
    name="attacker",
    attack=AttackSpec.of("kernel-single", total_acts=200_000),
)

#: The victims again, lifted to crossbar priority 1 — the client mix
#: the ``priority`` scheduling policy protects in the QoS preset.
PRIORITIZED_VICTIMS: Tuple[ClientSpec, ...] = tuple(
    dataclasses.replace(client, priority=1) for client in VICTIM_CLIENTS
)

SYSTEM_PRESETS: Dict[str, SystemSweepSpec] = {
    spec.name: spec
    for spec in (
        SystemSweepSpec(
            name="system-smoke",
            description="CI smoke gate: one tenant alone, the "
            "contended duo under MOAT, and the duo undefended",
            scenarios=(
                (
                    "solo",
                    SystemRunConfig(
                        clients=(
                            ClientSpec(
                                name="tenant0", workload=TENANT_WORKLOAD
                            ),
                        ),
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "duo",
                    SystemRunConfig(
                        clients=DUO_CLIENTS, banks=2, n_trefi=512
                    ),
                ),
                (
                    "duo-null",
                    SystemRunConfig(
                        clients=DUO_CLIENTS,
                        policy=PolicySpec("null"),
                        banks=2,
                        n_trefi=512,
                    ),
                ),
            ),
        ),
        SystemSweepSpec(
            name="system-shard",
            description="Channel scale-out: the contended duo on 1, 2, "
            "and 4 independent channels (per-channel streams reseeded "
            "by channel, aggregates merged exactly)",
            scenarios=tuple(
                (
                    f"duo-ch{channels}",
                    SystemRunConfig(
                        clients=DUO_CLIENTS,
                        channels=channels,
                        banks=2,
                        n_trefi=256,
                    ),
                )
                for channels in (1, 2, 4)
            ),
        ),
        SystemSweepSpec(
            name="system-noisy",
            description="Noisy neighbor: two victims with and without "
            "a single-row PRAC hammer sharing the crossbar at ATH=32 "
            "(victim p99 degradation is the gated contrast)",
            scenarios=(
                (
                    "quiet",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS,
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS + (ATTACKER_CLIENT,),
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy-null",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS + (ATTACKER_CLIENT,),
                        policy=PolicySpec("null"),
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
            ),
        ),
        SystemSweepSpec(
            name="system-qos",
            description="QoS under the ALERT storm: the noisy-neighbor "
            "cast at ATH=32 under every scheduling policy — unprotected "
            "FR-FCFS vs strict priority (victims prioritized), a "
            "per-client bandwidth cap on the attacker, and the p99 "
            "budget gate (victim p99 degradation per policy is the "
            "gated contrast)",
            scenarios=(
                (
                    "quiet",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS,
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy-frfcfs",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS + (ATTACKER_CLIENT,),
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy-priority",
                    SystemRunConfig(
                        clients=PRIORITIZED_VICTIMS + (ATTACKER_CLIENT,),
                        scheduler="priority",
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy-bwcap",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS + (ATTACKER_CLIENT,),
                        scheduler="bw-cap",
                        # Generous default quota; the attacker (client
                        # 2) alone is squeezed well under its ~1.2 GB/s
                        # natural hammer rate.
                        sched_params=(("gbps", 8.0), ("gbps2", 0.1)),
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
                (
                    "noisy-slo",
                    SystemRunConfig(
                        clients=VICTIM_CLIENTS + (ATTACKER_CLIENT,),
                        scheduler="slo",
                        ath=32,
                        banks=2,
                        n_trefi=512,
                    ),
                ),
            ),
        ),
    )
}


def system_preset(name: str) -> SystemSweepSpec:
    """Look up a system preset by name with a helpful error."""
    return lookup_preset(SYSTEM_PRESETS, "system", name)
