"""Ratchet attack: exploiting inter-ALERT activations (paper Section 5).

MOAT guarantees that a row crossing ATH is mitigated at the next ALERT,
but JEDEC permits activity between consecutive ALERTs: 3 activations in
the 180 ns pre-RFM window plus ``L`` mandatory activations after the
RFMs. The Ratchet attack primes a pool of rows to ATH and then forces a
chain of ALERTs, spending every permitted inter-ALERT activation on the
rows that have not yet been mitigated — ratcheting the survivors above
ATH. The larger the pool, the higher the final count on the last
surviving row.

:func:`run_ratchet` executes the attack in the full simulator with a
greedy spreading strategy (even water-filling over survivors, avoiding
making the intended survivor the tracker maximum until the end).
:func:`ratchet_growth_curve` sweeps pool sizes to expose the
logarithmic growth that Appendix A's analytical model
(:mod:`repro.analysis.ratchet_model`) bounds. The simulated attack is
one concrete strategy, so its counts are a *lower* bound on the
analytical Safe-TRH (which MOAT uses for provisioning).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    MitigationLog,
    attack_rows,
    build_channel,
    require_single_subchannel,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.moat import MoatPolicy
from repro.sim.channel import ChannelSim


def _moat_sim(
    ath: int,
    abo_level: int,
    tracker_level: int,
    run: AttackRunConfig,
) -> ChannelSim:
    return build_channel(
        run,
        lambda: MoatPolicy(ath=ath, level=tracker_level),
        reset_policy=CounterResetPolicy.SAFE,
        trefi_per_mitigation=5,
        abo_level=abo_level,
        reset_counter_on_mitigation=True,
    )


def run_ratchet(
    ath: int = 64,
    pool_size: int = 64,
    abo_level: int = 1,
    tracker_level: Optional[int] = None,
    max_alerts: int = 100_000,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Execute the Ratchet attack against MOAT.

    Args:
        ath: MOAT's ALERT threshold.
        pool_size: Number of primed candidate rows (N in Appendix A).
        abo_level: MR71 ABO level (RFMs per ALERT, inter-ALERT ACTs).
        tracker_level: MOAT tracker entries; defaults to ``abo_level``
            (the generalized design). Pass 1 with ``abo_level=4`` to
            model the footnote's misconfigured single-entry case.

    ``acts_on_attack_row`` is the activation count of the last row at
    the moment it is finally mitigated — the quantity Figure 10 bounds.
    """
    if tracker_level is None:
        tracker_level = abo_level
    run = run or AttackRunConfig()
    require_single_subchannel(run, "ratchet")
    pool = attack_rows(run, pool_size)
    sim = _moat_sim(ath, abo_level, tracker_level, run)
    with MitigationLog(sim) as log:

        # --- Priming phase: bring every pool row to exactly ATH. ----------
        # Proactive mitigation may steal primed rows (they exceed ETH); the
        # attacker simply re-primes, which Appendix A's F(N) approximation
        # absorbs. We track our own issued counts and top up as needed.
        counts = {row: 0 for row in pool}

        def mitigations(row: int) -> int:
            return log.times_mitigated(row)

        baseline_mitigations = {row: 0 for row in pool}

        def current_count(row: int) -> int:
            # A mitigation resets the row's counter; our mirror restarts.
            return counts[row]

        def note_acts(row: int, n: int) -> None:
            for _ in range(n):
                sim.activate(row)
                counts[row] += 1
                if mitigations(row) != baseline_mitigations[row]:
                    baseline_mitigations[row] = mitigations(row)
                    counts[row] = 0

        stable = False
        for _ in range(64):  # priming rounds; converges in a few
            stable = True
            for row in pool:
                deficit = ath - current_count(row)
                if deficit > 0:
                    stable = False
                    note_acts(row, deficit)
            if stable:
                break

        # --- ALERT chain: ratchet the survivors. ---------------------------
        # Every activation now pushes a row above ATH. The engine fires an
        # ALERT as soon as the inter-ALERT constraints allow; MOAT mitigates
        # the tracked maximum. The attacker spreads activations evenly over
        # the survivors with the *lowest* counts first, so the intended
        # survivor never becomes the tracker maximum prematurely.
        alerts_before = sim.alerts
        chain_base = {row: mitigations(row) for row in pool}

        def alive(row: int) -> bool:
            return mitigations(row) == chain_base[row]

        survivors = list(pool)
        while len(survivors) > 1 and sim.alerts - alerts_before < max_alerts:
            target = min(survivors, key=lambda r: counts[r])
            note_acts(target, 1)
            survivors = [row for row in survivors if alive(row)]

        # Final row: hammer it until its own ALERT takes it out.
        if survivors:
            last = survivors[0]
            while alive(last) and sim.alerts - alerts_before < max_alerts:
                note_acts(last, 1)
        sim.flush()

    # The bank's danger accounting is the authoritative metric: the
    # attacker-side mirror can drift when the periodic refresh wave
    # resets counters mid-attack (long priming phases sweep the pool).
    return AttackResult(
        name=f"ratchet(ATH={ath},L{abo_level},N={pool_size})",
        acts_on_attack_row=sim.bank.max_danger,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"pool": pool_size},
    )


def ratchet_growth_curve(
    ath: int = 64,
    pool_sizes: Optional[List[int]] = None,
    abo_level: int = 1,
    run: Optional[AttackRunConfig] = None,
) -> Dict[int, int]:
    """Max activations on the attack row vs pool size (log growth)."""
    pool_sizes = pool_sizes or [4, 16, 64, 256]
    return {
        n: run_ratchet(
            ath=ath,
            pool_size=n,
            abo_level=abo_level,
            run=run,
        ).acts_on_attack_row
        for n in pool_sizes
    }
