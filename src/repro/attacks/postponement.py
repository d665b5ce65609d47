"""Refresh-postponement attack on drain-all Panopticon (Appendix B).

The Drain-All-Entries-on-REF Panopticon variant empties its queue at
every REF, defeating Jailbreak-style camping. But DDR5 permits the
memory controller to postpone up to two REFs; with postponement the
REFs arrive in batches of three every three tREFI, opening a window of
about 201 activations between mitigation opportunities.

The attacker pre-charges a row's free-running counter to one below the
queueing threshold, lets a REF batch pass, and then hammers: the row
enters the queue on the first activation after the batch and absorbs
~200 more activations before the next batch can mitigate it — a total
of ~328 against a threshold of 128 (2.6x, Figure 16).
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import (
    AttackResult,
    AttackRunConfig,
    MitigationLog,
    attack_rows,
    build_channel,
    require_single_subchannel,
)
from repro.dram.refresh import CounterResetPolicy
from repro.mitigations.panopticon import PanopticonPolicy


def run_postponement_attack(
    threshold: int = 128,
    queue_entries: int = 8,
    max_acts: int = 4096,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Break drain-all Panopticon with refresh postponement.

    Returns ``acts_on_attack_row`` — activations on row A before its
    first mitigation (~328 for the default configuration).
    """
    run = run or AttackRunConfig()
    require_single_subchannel(run, "postponement")
    attack_row = attack_rows(run, 1)[0]
    sim = build_channel(
        run,
        lambda: PanopticonPolicy(
            queue_threshold=threshold,
            queue_entries=queue_entries,
            drain_all_on_ref=True,
        ),
        reset_policy=CounterResetPolicy.FREE_RUNNING,
        trefi_per_mitigation=1,  # drain-all repurposes every REF
        reset_counter_on_mitigation=False,
        max_postponed_refs=2,
    )
    with MitigationLog(sim) as log:
        sim.postpone_refs = True

        # Pre-charge the counter to threshold-1 before the first REF
        # batch — an open-loop burst, so it batches through the channel.
        sim.activate_many([attack_row] * (threshold - 1))
        acts = threshold - 1

        # Let the next mandatory batch of three REFs execute (REFs are
        # postponed twice, so batches land at every third tREFI boundary;
        # large thresholds may need several batch periods to pre-charge).
        batch_period = 3 * sim.timing.t_refi
        next_batch = (int(sim.now // batch_period) + 1) * batch_period
        sim.advance_to(next_batch + 3 * sim.timing.t_rfc + 1.0)

        # Hammer: the first activation crosses the threshold and enqueues
        # the row; it is mitigated only at the next REF batch.
        while not log.was_mitigated(attack_row) and acts < max_acts:
            sim.activate(attack_row)
            acts += 1
        sim.flush()

    return AttackResult(
        name="refresh-postponement-vs-drain-all",
        acts_on_attack_row=acts,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"threshold": threshold},
    )
