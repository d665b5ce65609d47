"""Torrent-of-Staggered-ALERT (TSA) performance attack (paper §7.3).

The key insight: an ALERT gives *every* bank a mitigation opportunity,
so a synchronized multi-bank attack wastes ALERTs (each one cleans all
banks). TSA staggers the banks — while one bank fires its chain of
ALERTs, the other banks keep their primed rows *untouched* (and hence
untracked: MOAT's tracker was invalidated by the previous ALERT), so
every ALERT mitigates exactly one row. The result is a torrent of
back-to-back ALERTs: ~24% throughput loss at 4 banks and ~52% at 17
banks (the tFAW-limited bank count) in the paper's unit model; the
simulator reproduces the same shape.

Inter-ALERT filler activations target cold rows (count below ETH), so
they never enter any tracker.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    attack_rows,
    build_channel,
    require_single_subchannel,
    subscribed,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.base import MitigationPolicy
from repro.mitigations.moat import MoatPolicy
from repro.mitigations.null import NullPolicy


def _run_tsa(
    policy_factory: Callable[[], MitigationPolicy],
    num_banks: int,
    ath: int,
    rows_per_set: int,
    cycles: int,
    run: AttackRunConfig,
) -> AttackResult:
    sim = build_channel(
        run,
        policy_factory,
        num_banks=num_banks,
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=5,
        abo_level=1,
        track_danger=False,
    )
    rows = attack_rows(run, rows_per_set)
    # Cold filler rows, far from the primed sets (historically 32 000;
    # scaled into range for smaller banks).
    fillers = attack_rows(run, 8, start=min(32_000, run.rows_per_bank // 2))

    # Attacker-side count mirrors, reset by the mitigation listener.
    counts: Dict[int, List[int]] = {b: [0] * rows_per_set for b in range(num_banks)}

    def on_mitigation(bank: int, row: int, reactive: bool, time: float) -> None:
        if row in rows:
            counts[bank][rows.index(row)] = 0

    def act(bank: int, row_index: int) -> None:
        sim.activate(rows[row_index], bank=bank)
        counts[bank][row_index] += 1

    def prime(bank: int, target: int) -> None:
        for index in range(rows_per_set):
            while counts[bank][index] < target:
                act(bank, index)

    # The listener detaches when the attack finishes (or raises), so a
    # reused engine never keeps counting into this run's mirrors.
    with subscribed(sim, on_mitigation):
        for _ in range(cycles):
            # Prime all banks round-robin, one ACT per bank per step, so the
            # banks prime in parallel (bank-level parallelism: 320 ACTs per
            # bank complete in ~320 tRC of wall-clock, Figure 12).
            for _ in range(ath):
                for index in range(rows_per_set):
                    for bank in range(num_banks):
                        if counts[bank][index] < ath:
                            act(bank, index)
            # Staggered trigger phase: one bank at a time.
            for bank in range(num_banks):
                prime(bank, ath)  # top up rows stolen by earlier ALERTs
                for index in range(rows_per_set):
                    act(bank, index)  # crosses ATH -> ALERT
                    for filler in fillers[:3]:
                        sim.activate(filler, bank=bank)
        sim.flush()

    return AttackResult(
        name=f"tsa({num_banks} banks)",
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
    )


def run_tsa(
    num_banks: int = 4,
    ath: int = 64,
    rows_per_set: int = 5,
    cycles: int = 4,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Run TSA against MOAT and an unprotected baseline.

    Returns a result whose ``details['throughput_loss']`` is the
    fractional activation-throughput reduction versus the same pattern
    on DRAM that never ALERTs (Figure 12: ~24% at 4 banks, ~52% at 17).
    """
    run = run or AttackRunConfig()
    require_single_subchannel(run, "tsa")
    protected = _run_tsa(
        lambda: MoatPolicy(ath=ath, level=1),
        num_banks,
        ath,
        rows_per_set,
        cycles,
        run,
    )
    baseline = _run_tsa(
        NullPolicy, num_banks, ath, rows_per_set, cycles, run
    )
    loss = 1.0 - (protected.throughput / baseline.throughput)
    protected.name = f"tsa({num_banks} banks, ATH={ath})"
    protected.details["throughput_loss"] = loss
    protected.details["normalized_throughput"] = 1.0 - loss
    return protected
