"""Feinting attack against transparent per-row-counter mitigation.

The feinting strategy (ProTRR, used by the paper for Table 2): with
``m`` mitigation periods remaining and ``n`` activations available per
period, spread each period's activations evenly over the surviving
candidate rows. The defender mitigates the maximum-count row each
period; the attacker abandons it. The last survivor accumulates
``n * H(m)`` activations — far above the counter threshold, which is
why a purely transparent scheme cannot tolerate a low T_RH.

The simulation places candidate rows immediately after the refresh
pointer's starting position so the refresh wave (which would clear
victim exposure) passes them only at the very end of the window.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    MitigationLog,
    build_channel,
    require_single_subchannel,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.ideal_perrow import IdealPerRowPolicy


def run_feinting(
    trefi_per_mitigation: int = 4,
    periods: Optional[int] = None,
    row_spacing: int = 6,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Run the feinting attack against :class:`IdealPerRowPolicy`.

    Args:
        trefi_per_mitigation: Mitigation rate ``k`` (Table 2 sweeps 1-5).
        periods: Number of mitigation periods to attack over; defaults
            to one full refresh window (8192 / k). Smaller values give a
            fast, scaled run whose bound is ``n * H(periods)``.

    Returns an :class:`AttackResult`; ``acts_on_attack_row`` is the
    count accumulated by the surviving row (compare with
    :func:`repro.analysis.feinting_bound`).
    """
    run = run or AttackRunConfig()
    require_single_subchannel(run, "feinting")
    timing = run.timing
    if periods is None:
        periods = timing.refs_per_refw // trefi_per_mitigation
    if periods <= 0:
        raise ValueError("periods must be positive")

    sim = build_channel(
        run,
        IdealPerRowPolicy,
        reset_policy=CounterResetPolicy.FREE_RUNNING,
        trefi_per_mitigation=trefi_per_mitigation,
        reset_counter_on_mitigation=True,
    )
    with MitigationLog(sim) as log:
        acts_per_period = timing.acts_per_trefi * trefi_per_mitigation
        # Candidates sit just past the first refresh groups; the wave reaches
        # them near the end of the attack. Spaced so victims never overlap.
        rows_per_group = run.rows_per_bank // run.num_refresh_groups
        first_row = rows_per_group * 2
        candidates: List[int] = [
            first_row + i * row_spacing for i in range(periods)
        ]
        if candidates[-1] >= run.rows_per_bank:
            raise ValueError(
                "bank too small for the requested periods/spacing; "
                "increase rows_per_bank or reduce periods"
            )

        issued = {row: 0 for row in candidates}
        survivors = list(candidates)
        trefi = timing.t_refi
        period_ns = trefi_per_mitigation * trefi
        cursor = 0  # rotates the remainder allocation across survivors

        for remaining in range(periods, 0, -1):
            period_start = sim.now
            share, extra = divmod(acts_per_period, remaining)
            # Even spread with a rotating remainder: over time every
            # survivor receives the fractional share n/r, which is what the
            # harmonic bound assumes. Without rotation the back of the pool
            # starves whenever n < r (e.g. rate k=1: 67 ACTs, 8192 rows).
            # The period is open-loop, so it issues as one batch.
            batch: List[int] = []
            for index in range(remaining):
                row = survivors[(cursor + index) % remaining]
                count = share + (1 if index < extra else 0)
                batch += [row] * count
                issued[row] += count
            sim.activate_many(batch)
            cursor += extra
            # Let the period elapse (mitigation fires at its boundary).
            sim.advance_to(period_start + period_ns)
            # Drop whichever candidate the defender mitigated.
            survivors = [row for row in survivors if not log.was_mitigated(row)]
            if not survivors:
                break

        sim.flush()
        survivors_left = len(survivors)

    # The last survivor receives its full allocation before the final
    # boundary mitigates it; counts only accumulate while a row is
    # alive, so the maximum issued count is the survivor's total.
    survivor_acts = max(issued.values(), default=0)
    return AttackResult(
        name=f"feinting(k={trefi_per_mitigation})",
        acts_on_attack_row=survivor_acts,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"periods": periods, "survivors": survivors_left},
    )
