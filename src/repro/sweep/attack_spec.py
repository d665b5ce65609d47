"""Declarative attack-sweep specifications and named presets.

The security analogue of :mod:`repro.sweep.spec`: an
:class:`AttackSweepSpec` is the cross product of its attack list and
channel axes (sub-channel count); expanding it yields one
:class:`AttackSweepPoint` per cell, each carrying a complete
:class:`~repro.attacks.registry.AttackSpec` +
:class:`~repro.attacks.base.AttackRunConfig` pair plus a stable key and
a content hash — the identity used by the parallel runner's point cache
and by the ``BENCH_attack.json`` baseline gate.

:data:`ATTACK_PRESETS` names a spec for every paper security figure the
harness reproduces: Jailbreak (fig5), Ratchet (fig9/fig10), the
throughput kernels (fig13), TSA (fig12, with the smoke-scale ``tsa``
subset), feinting (table2, with the smoke-scale ``feinting`` subset),
refresh postponement (fig16/``postponement``), the Figure 1(a) design
space, the Section 2.4 motivation, and the Section 9 queue-length
ablation. Presets overlap freely: points are cached by config hash, so
a point shared between two presets is simulated once.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.attacks.base import AttackRunConfig
from repro.attacks.registry import AttackSpec
from repro.sweep.spec import _canonical

#: Part of every attack point's config hash; bump it only to retire the
#: committed baselines on a deliberate semantic change (the point cache
#: already recomputes after any code change, see ``source_fingerprint``).
ATTACK_RESULT_VERSION = 1

#: Axes mapped to the neutral value at which they leave the simulation
#: unchanged (the same convention as the perf sweep's spec). ``seed``
#: is neutral at 0 because no *registered* attack is stochastic today —
#: the axis is reserved for future randomized attacks, and keeping the
#: default out of point identity means baselines and cache entries
#: survive the day one starts consuming it.
_NEUTRAL_AXES = {"subchannels": 1, "seed": 0}


@dataclass(frozen=True)
class AttackSweepPoint:
    """One grid cell: an attack spec plus its full run config."""

    attack: AttackSpec
    run: AttackRunConfig

    @property
    def key(self) -> str:
        """Stable human-readable identity (artifact/baseline key).

        Additive axes only appear at non-neutral values, so keys stay
        valid when an axis is introduced later.
        """
        sc = f"|sc={self.run.subchannels}" if self.run.subchannels != 1 else ""
        seed = f"|seed={self.run.seed}" if self.run.seed != 0 else ""
        return f"{self.attack.display_name()}{sc}{seed}"

    def config_hash(self) -> str:
        """Content hash of everything that determines the result.

        Additive axes hash out at their neutral value (see
        :data:`_NEUTRAL_AXES`): a one-sub-channel attack is the same
        simulation the pre-channel harness performed, so it keeps the
        same identity — the baseline gate therefore doubles as a
        bit-identity check across the ChannelSim port.
        """
        run = _canonical(self.run)
        for name, neutral in _NEUTRAL_AXES.items():
            if run.get(name) == neutral:
                del run[name]
        payload = {
            "version": ATTACK_RESULT_VERSION,
            "attack": {"kind": self.attack.kind,
                       "params": _canonical(self.attack.params)},
            "run": run,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class AttackSweepSpec:
    """Grid of attack runs (attacks crossed with the channel axes)."""

    name: str
    description: str = ""
    attacks: Tuple[AttackSpec, ...] = ()
    #: Sub-channels per simulated channel (the ChannelSim axis).
    subchannels: Tuple[int, ...] = (1,)
    seed: int = 0

    def points(self) -> List[AttackSweepPoint]:
        """Expand the grid in deterministic order, deduplicated by key."""
        out: List[AttackSweepPoint] = []
        seen: set = set()
        for attack, sc in itertools.product(self.attacks, self.subchannels):
            point = AttackSweepPoint(
                attack=attack,
                run=AttackRunConfig(subchannels=sc, seed=self.seed),
            )
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
        self, seed: Optional[int] = None
    ) -> "AttackSweepSpec":
        """Copy with CLI-level overrides applied."""
        changes: Dict[str, Any] = {}
        if seed is not None:
            changes["seed"] = seed
        return dataclasses.replace(self, **changes) if changes else self


#: Smoke-scale presets: every attack at parameters small enough for a
#: CI gate yet large enough to reproduce each figure's qualitative
#: result (Jailbreak ~9x threshold, Ratchet log growth, kernel ~5-10%
#: loss, TSA loss growing with banks, feinting harmonic blowup,
#: postponement ~2.6x threshold).
ATTACK_PRESETS: Dict[str, AttackSweepSpec] = {
    spec.name: spec
    for spec in (
        AttackSweepSpec(
            name="fig5",
            description="Deterministic Jailbreak vs Panopticon at "
            "queueing thresholds 64/128, plus one fully-simulated "
            "all-heavy randomized iteration (Figure 5)",
            attacks=(
                AttackSpec.of("jailbreak", threshold=64),
                AttackSpec.of("jailbreak", threshold=128),
                AttackSpec.of("jailbreak-randomized",
                              initial_counters=(112,) * 8,
                              attack_row_counter=96),
            ),
        ),
        AttackSweepSpec(
            name="fig10",
            description="Ratchet vs MOAT: pool-size growth at ATH=64, "
            "the ATH sweep at pool 64, and the generalized L4 tracker "
            "(Figure 10)",
            attacks=(
                AttackSpec.of("ratchet", ath=64, pool_size=4),
                AttackSpec.of("ratchet", ath=64, pool_size=16),
                AttackSpec.of("ratchet", ath=64, pool_size=64),
                AttackSpec.of("ratchet", ath=64, pool_size=8, abo_level=4),
                AttackSpec.of("ratchet", ath=32, pool_size=64),
                AttackSpec.of("ratchet", ath=128, pool_size=64),
            ),
        ),
        AttackSweepSpec(
            name="fig1",
            description="Figure 1(a) design-space exposures at "
            "T_RH ~ 99: TRR thrashing, Jailbreak vs Panopticon, "
            "Ratchet vs MOAT",
            attacks=(
                AttackSpec.of("trespass", num_aggressors=32,
                              tracker_entries=16, acts_per_aggressor=600),
                AttackSpec.of("jailbreak", threshold=128),
                AttackSpec.of("ratchet", ath=64, pool_size=64),
            ),
        ),
        AttackSweepSpec(
            name="fig9",
            description="Illustrative Ratchet on a 4-row pool at ABO "
            "level 4 with a single-entry tracker (Figure 9)",
            attacks=(
                AttackSpec.of("ratchet", ath=64, pool_size=4,
                              abo_level=4, tracker_level=1),
            ),
        ),
        AttackSweepSpec(
            name="fig12",
            description="TSA throughput loss vs bank count up to the "
            "tFAW-limited 17 banks (Figure 12)",
            attacks=tuple(
                AttackSpec.of("tsa", num_banks=banks, cycles=2)
                for banks in (1, 4, 8, 17)
            ),
        ),
        AttackSweepSpec(
            name="fig16",
            description="REF postponement vs drain-all Panopticon "
            "across queueing thresholds (Figure 16 / Appendix B)",
            attacks=tuple(
                AttackSpec.of("postponement", threshold=threshold)
                for threshold in (64, 128, 256)
            ),
        ),
        AttackSweepSpec(
            name="motivation",
            description="Section 2.4 motivation: many-aggressor "
            "thrashing blinds a 16-entry tracker; fewer aggressors "
            "than entries are caught",
            attacks=(
                AttackSpec.of("trespass", num_aggressors=32,
                              tracker_entries=16, acts_per_aggressor=600),
                AttackSpec.of("trespass", num_aggressors=4,
                              tracker_entries=16, acts_per_aggressor=600),
            ),
        ),
        AttackSweepSpec(
            name="table2",
            description="Feinting vs ideal per-row counters at rates "
            "1-5 over a 512-period prefix (Table 2)",
            attacks=tuple(
                AttackSpec.of("feinting", trefi_per_mitigation=k,
                              periods=512)
                for k in (1, 2, 3, 4, 5)
            ),
        ),
        AttackSweepSpec(
            name="ablation-queue",
            description="Jailbreak exposure vs Panopticon queue length "
            "(Section 9, Recommendation 1)",
            attacks=tuple(
                AttackSpec.of("jailbreak", queue_entries=entries)
                for entries in (1, 2, 4, 8, 16)
            ),
        ),
        AttackSweepSpec(
            name="fig13",
            description="Single/multi-row throughput kernels vs MOAT "
            "across ATH (Figure 13)",
            attacks=(
                AttackSpec.of("kernel-single", ath=32, total_acts=6000),
                AttackSpec.of("kernel-single", ath=64, total_acts=6000),
                AttackSpec.of("kernel-single", ath=128, total_acts=6000),
                AttackSpec.of("kernel-multi", rows=5, ath=64, total_acts=6000),
            ),
        ),
        AttackSweepSpec(
            name="tsa",
            description="Torrent-of-Staggered-ALERT: throughput loss "
            "vs bank count (Figure 12 / Section 7.3)",
            attacks=(
                AttackSpec.of("tsa", num_banks=1, cycles=2),
                AttackSpec.of("tsa", num_banks=4, cycles=2),
                AttackSpec.of("tsa", num_banks=8, cycles=2),
            ),
        ),
        AttackSweepSpec(
            name="feinting",
            description="Feinting vs ideal per-row counters across "
            "mitigation rates (Table 2 / Section 2.5)",
            attacks=(
                AttackSpec.of("feinting", trefi_per_mitigation=1, periods=64),
                AttackSpec.of("feinting", trefi_per_mitigation=2, periods=64),
                AttackSpec.of("feinting", trefi_per_mitigation=4, periods=64),
            ),
        ),
        AttackSweepSpec(
            name="postponement",
            description="REF postponement vs drain-all Panopticon at "
            "thresholds 64/128 (Figure 16 / Appendix B)",
            attacks=(
                AttackSpec.of("postponement", threshold=64),
                AttackSpec.of("postponement", threshold=128),
            ),
        ),
    )
}


def attack_preset(name: str) -> AttackSweepSpec:
    """Look up an attack preset by name with a helpful error."""
    try:
        return ATTACK_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(ATTACK_PRESETS))
        raise KeyError(
            f"unknown attack preset {name!r}; known: {known}"
        ) from None
