"""Shared plumbing for attack implementations.

Attacks drive a :class:`~repro.sim.channel.ChannelSim` (the same
channel → sub-channel → bank hierarchy the performance front-end uses)
and report an :class:`AttackResult`. Adaptive attacks exploit the
threat model's full knowledge of the defense state (Section 2.1)
through per-ACT control; open-loop patterns batch through
:meth:`~repro.sim.channel.ChannelSim.activate_many`. At one sub-channel
the channel is bit-identical to a bare
:class:`~repro.sim.engine.SubchannelSim`, which is what keeps the
pre-port attack results pinned exactly
(``tests/attacks/test_attack_port_identity.py``).

Geometry (rows per bank, refresh groups, sub-channel count, timing)
comes from one shared :class:`AttackRunConfig` — the attack modules no
longer hardcode their own — and :func:`build_channel` turns it plus the
attack's semantic knobs (reset policy, mitigation cadence, ABO level)
into a ready :class:`~repro.sim.channel.ChannelSim`.

A :class:`MitigationLog` subscribes to the engine's mitigation events
so attacks can detect exactly when their target row was serviced. Logs
(and raw listeners via :func:`subscribed`) detach cleanly, so a reused
engine never accumulates stale listeners across attacks.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING
from repro.sim.channel import ChannelConfig, ChannelSim
from repro.sim.engine import MitigationListener, SimConfig, SubchannelSim

#: Anything an attack can drive: the full channel or a bare engine.
AttackSim = Union[ChannelSim, SubchannelSim]


@dataclass(frozen=True)
class AttackRunConfig:
    """Shared run-level configuration of one attack execution.

    The single source of truth for simulation geometry: every attack
    derives its DRAM dimensions from here (the paper's Table 3 system
    by default) instead of hardcoding them, so the registry, the sweep
    presets, and the perf front-end can never silently drift apart.

    Args:
        rows_per_bank: Rows per simulated bank.
        num_refresh_groups: Refresh groups per tREFW window.
        subchannels: Sub-channels in the simulated channel. ``1``
            reproduces the pre-port single-engine runs bit-for-bit.
        timing: DRAM timing parameters.
    """

    rows_per_bank: int = 64 * 1024
    num_refresh_groups: int = 8192
    subchannels: int = 1
    timing: DramTiming = field(default_factory=lambda: DDR5_PRAC_TIMING)

    def __post_init__(self) -> None:
        if self.subchannels < 1:
            raise ValueError("subchannels must be at least 1")
        if self.rows_per_bank < self.num_refresh_groups:
            raise ValueError("rows_per_bank must cover the refresh groups")


def build_channel(
    run: AttackRunConfig,
    policy_factory,
    **sim_overrides: Any,
) -> ChannelSim:
    """Build the attack's :class:`ChannelSim` from the shared config.

    ``sim_overrides`` are the attack-semantic :class:`SimConfig` fields
    (reset policy, proactive cadence, ABO level, danger tracking...);
    geometry and timing always come from ``run``.
    """
    sim_config = SimConfig(
        timing=run.timing,
        rows_per_bank=run.rows_per_bank,
        num_refresh_groups=run.num_refresh_groups,
        **sim_overrides,
    )
    return ChannelSim(
        ChannelConfig(sim=sim_config, num_subchannels=run.subchannels),
        policy_factory,
    )


@dataclass
class AttackResult:
    """Outcome of one attack run.

    Attributes:
        name: Attack identifier.
        acts_on_attack_row: Activations the attacker landed on the
            victim-adjacent attack row before it was mitigated — the
            paper's headline metric for Jailbreak (Figure 5) and Ratchet
            (Figure 10).
        max_danger: Ground-truth maximum hammer exposure of any victim
            row (from the bank's danger accounting).
        alerts: ALERT episodes triggered during the attack.
        elapsed_ns: Attack duration.
        total_acts: Total activations issued.
        subchannels: Sub-channels of the simulated channel.
        details: Attack-specific extras.
    """

    name: str
    acts_on_attack_row: int = 0
    max_danger: int = 0
    alerts: int = 0
    elapsed_ns: float = 0.0
    total_acts: int = 0
    subchannels: int = 1
    details: Dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Activations per nanosecond over the attack.

        ``NaN`` when the simulation never advanced (``elapsed_ns == 0``)
        — an undefined rate, distinct from the genuine zero throughput
        of a run that idled through real time without activating.
        """
        if self.elapsed_ns == 0:
            return float("nan")
        return self.total_acts / self.elapsed_ns

    def as_metrics(self) -> Dict[str, float]:
        """Flat metric dict (attack artifacts, baseline gating).

        Numeric ``details`` flatten to ``detail:<name>`` keys. Only
        finite values are emitted: an undefined rate (``throughput``
        of a run that never advanced, a ``detail:`` derived from one)
        is *absent*, never a JSON-breaking ``NaN`` token — and a
        metric the baseline recorded but the run lacks fails the
        baseline diff explicitly.
        """
        metrics = {
            "acts_on_attack_row": float(self.acts_on_attack_row),
            "max_danger": float(self.max_danger),
            "alerts": float(self.alerts),
            "total_acts": float(self.total_acts),
            "elapsed_ns": float(self.elapsed_ns),
            "throughput": self.throughput,
        }
        for key, value in sorted(self.details.items()):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[f"detail:{key}"] = float(value)
        return {k: v for k, v in metrics.items() if math.isfinite(v)}


def _listener_lists(sim: AttackSim) -> List[List[MitigationListener]]:
    """Every mitigation-listener list behind ``sim`` (channel or bare)."""
    subchannels = getattr(sim, "subchannels", None)
    if subchannels is None:
        return [sim.mitigation_listeners]
    return [sub.mitigation_listeners for sub in subchannels]


@contextlib.contextmanager
def subscribed(sim: AttackSim, listener: MitigationListener) -> Iterator[None]:
    """Attach a raw mitigation listener for the duration of a block.

    Detaches on exit even if the attack raises, so a reused engine
    never keeps a stale listener (the double-counting bug this module
    used to have).
    """
    lists = _listener_lists(sim)
    for listeners in lists:
        listeners.append(listener)
    try:
        yield
    finally:
        for listeners in lists:
            with contextlib.suppress(ValueError):
                listeners.remove(listener)


class MitigationLog:
    """Records every mitigation performed by the engine.

    Subscribes to every sub-channel of a :class:`ChannelSim` (or to a
    bare :class:`SubchannelSim`). Use as a context manager — or call
    :meth:`detach` — when the simulator outlives the attack; otherwise
    a second attack on the same engine would feed a stale log and
    double-count events.
    """

    def __init__(self, sim: AttackSim) -> None:
        self.events: List[Tuple[int, int, bool, float]] = []
        self._mitigated_rows: Dict[Tuple[int, int], int] = {}
        self._lists = _listener_lists(sim)
        for listeners in self._lists:
            listeners.append(self._on_mitigation)

    def _on_mitigation(self, bank: int, row: int, reactive: bool, time: float) -> None:
        self.events.append((bank, row, reactive, time))
        key = (bank, row)
        self._mitigated_rows[key] = self._mitigated_rows.get(key, 0) + 1

    @property
    def attached(self) -> bool:
        """Whether the log still receives mitigation events."""
        return bool(self._lists)

    def detach(self) -> None:
        """Stop receiving events; safe to call more than once."""
        for listeners in self._lists:
            with contextlib.suppress(ValueError):
                listeners.remove(self._on_mitigation)
        self._lists = []

    def __enter__(self) -> "MitigationLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.detach()

    def times_mitigated(self, row: int, bank: int = 0) -> int:
        """How many times (bank, row) has been mitigated so far."""
        return self._mitigated_rows.get((bank, row), 0)

    def was_mitigated(self, row: int, bank: int = 0) -> bool:
        return self.times_mitigated(row, bank) > 0


def spaced_rows(count: int, start: int = 4096, spacing: int = 8) -> List[int]:
    """Aggressor rows spaced so their victim neighbourhoods never overlap
    (spacing > 2 * blast_radius) and placed away from the refresh wave's
    starting region."""
    return [start + i * spacing for i in range(count)]


def attack_rows(
    run: AttackRunConfig,
    count: int,
    spacing: int = 8,
    start: Optional[int] = None,
) -> List[int]:
    """Aggressor rows derived from (and validated against) the geometry.

    The default start scales with the bank (``rows_per_bank / 16``,
    capped at the historical 4096 so the paper geometry is untouched)
    and the placement is checked to fit, so a shrunken
    :class:`AttackRunConfig` raises a clear error instead of crashing
    deep inside the bank with an out-of-range row.
    """
    if start is None:
        start = min(4096, run.rows_per_bank // 16)
    rows = spaced_rows(count, start=start, spacing=spacing)
    if rows and rows[-1] >= run.rows_per_bank:
        raise ValueError(
            f"bank of {run.rows_per_bank} rows cannot place {count} "
            f"aggressors at spacing {spacing} from row {start}; "
            "increase rows_per_bank or reduce the attack's row count"
        )
    return rows


def require_single_subchannel(run: AttackRunConfig, attack: str) -> None:
    """Guard for adaptive attacks, which drive one sub-channel.

    Their per-ACT feedback loops are defined against a single
    sub-channel's defense state; silently relabeling a one-sub-channel
    run as N would fabricate a channel result. Open-loop patterns
    (kernels, trespass) replicate across sub-channels instead.
    """
    if run.subchannels != 1:
        raise ValueError(
            f"{attack} is adaptive and drives a single sub-channel; "
            "run it at subchannels=1 (channel scaling applies to the "
            "open-loop patterns: kernel-single, kernel-multi, trespass)"
        )
