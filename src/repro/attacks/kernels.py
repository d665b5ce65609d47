"""Basic performance-attack kernels (paper Section 7.2, Figure 13).

These patterns measure *throughput* rather than security: an attacker
repeatedly drives rows to ATH so ALERTs fire continuously, and we
compare achieved activations-per-nanosecond against the same pattern on
an unprotected bank. For MOAT with ATH=64 both kernels lose ~10%.

The patterns are open-loop (the row sequence never depends on the
defense state), so they batch through
:meth:`~repro.sim.channel.ChannelSim.activate_many` — the engine's fast
path — without danger tracking, which a throughput measurement does
not read. Geometry comes from the shared
:class:`~repro.attacks.base.AttackRunConfig` instead of the hardcoded
dimensions this module used to carry.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    attack_rows,
    build_channel,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.base import MitigationPolicy
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy

#: Batch size for the open-loop pattern: large enough to amortize the
#: per-batch setup, small enough to keep peak memory flat.
_BATCH = 4096


def _run_pattern(
    policy_factory: Callable[[], MitigationPolicy],
    rows: List[int],
    total_acts: int,
    run: AttackRunConfig,
    abo_level: int = 1,
) -> AttackResult:
    sim = build_channel(
        run,
        policy_factory,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=5,
        abo_level=abo_level,
        track_danger=False,  # throughput measurement only
    )
    issued = 0
    index = 0
    n_rows = len(rows)
    while issued < total_acts:
        count = min(_BATCH, total_acts - issued)
        batch = [rows[(index + i) % n_rows] for i in range(count)]
        # The open-loop pattern replicates on every sub-channel: the
        # attacker hammers the whole channel, and the batches contend
        # for the shared command front-end. ``total_acts`` is the
        # per-sub-channel budget, so one sub-channel reproduces the
        # historical single-engine run exactly.
        for sub in range(run.subchannels):
            sim.activate_many(batch, subchannel=sub)
        issued += count
        index += count
    sim.flush()
    return AttackResult(
        name="kernel",
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
    )


def _kernel(
    rows: int,
    ath: int,
    total_acts: int,
    abo_level: int,
    run: AttackRunConfig,
) -> AttackResult:
    addresses = attack_rows(run, rows)
    protected = _run_pattern(
        lambda: MoatPolicy(ath=ath, level=abo_level),
        addresses,
        total_acts,
        run,
        abo_level=abo_level,
    )
    baseline = _run_pattern(
        NullPolicy, addresses, total_acts, run, abo_level=abo_level
    )
    loss = 1.0 - (protected.throughput / baseline.throughput)
    result = AttackResult(
        name=f"kernel-{rows}row(ATH={ath})",
        alerts=protected.alerts,
        elapsed_ns=protected.elapsed_ns,
        total_acts=protected.total_acts,
        subchannels=run.subchannels,
        details={
            "throughput_loss": loss,
            "normalized_throughput": protected.throughput / baseline.throughput,
            "baseline_ns": baseline.elapsed_ns,
        },
    )
    return result


def run_single_row_kernel(
    ath: int = 64,
    total_acts: int = 20_000,
    abo_level: int = 1,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """The (A)^N pattern: one row hammered continuously.

    Every ATH+1 activations trigger one ALERT; the ~10% throughput loss
    is the RFM stall amortized over the trigger activations.
    """
    return _kernel(1, ath, total_acts, abo_level, run or AttackRunConfig())


def run_multi_row_kernel(
    rows: int = 5,
    ath: int = 64,
    total_acts: int = 20_000,
    abo_level: int = 1,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """The (ABCDE)^N pattern: several rows cycled continuously.

    The loss matches the single-row kernel (~10%): each row still costs
    one ALERT per ATH+1 of its own activations.
    """
    return _kernel(rows, ath, total_acts, abo_level, run or AttackRunConfig())
