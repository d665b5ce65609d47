"""Many-aggressor thrashing of low-cost SRAM trackers (paper §2.4).

TRRespass-style attacks defeat few-entry trackers by using more
aggressor rows than the tracker has entries: a Misra-Gries table keeps
decrementing and never accumulates evidence against any single row, so
every aggressor sails past the Rowhammer threshold unmitigated. With
fewer aggressors than entries the same tracker catches them all — the
contrast that motivates per-row counting in DRAM.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    attack_rows,
    build_channel,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.trr import TrrTracker


def run_many_aggressor_attack(
    num_aggressors: int = 32,
    tracker_entries: int = 16,
    acts_per_aggressor: int = 512,
    mitigation_threshold: int = 32,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Round-robin hammer ``num_aggressors`` rows against a TRR tracker.

    With ``num_aggressors > tracker_entries`` the tracker stays blind
    and ``max_danger`` approaches ``acts_per_aggressor``; with fewer
    aggressors the tracker mitigates them and exposure stays bounded.

    The pattern is open-loop (a fixed round-robin), so it issues through
    :meth:`~repro.sim.channel.ChannelSim.activate_many` one round at a
    time.
    """
    run = run or AttackRunConfig()
    sim = build_channel(
        run,
        lambda: TrrTracker(
            entries=tracker_entries, mitigation_threshold=mitigation_threshold
        ),
        reset_policy=CounterResetPolicy.FREE_RUNNING,
        trefi_per_mitigation=4,
        reset_counter_on_mitigation=True,
    )
    rows = attack_rows(run, num_aggressors)
    for _ in range(acts_per_aggressor):
        # Open-loop round-robin, replicated on every sub-channel (one
        # round per sub-channel per step; each sub-channel's tracker
        # sees the full per-sub-channel pattern).
        for sub in range(run.subchannels):
            sim.activate_many(rows, subchannel=sub)
    sim.flush()

    return AttackResult(
        name=f"trrespass({num_aggressors} aggressors vs {tracker_entries} entries)",
        acts_on_attack_row=sim.bank.max_danger,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"aggressors": num_aggressors, "entries": tracker_entries},
    )
