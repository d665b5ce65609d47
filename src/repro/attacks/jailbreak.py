"""Jailbreak: breaking Panopticon's queue (paper Section 3).

Deterministic Jailbreak (Section 3.2): select 8 rows (A..H), activate
each 128 times in a circular pattern so all of them enter the 8-entry
FIFO queue within the same tREFI, with H entering last. Then hammer H
at 32 activations per tREFI — exactly one queue (re-)insertion per
4-tREFI mitigation period, so the queue never overflows and no ALERT is
raised. H is serviced only after the 7 earlier entries (FIFO), accruing
8 x 128 = 1024 activations while enqueued: 1152 total against a
queueing threshold of 128 (9x).

Randomized Jailbreak (Section 3.3): with counters randomized at reset,
an iteration succeeds when all 8 decoy rows are "heavy-weight" (their
counter crosses a multiple of 128 within the 32 priming activations,
i.e. ``counter mod 128 >= 96`` — probability 1/4 each, 2^-16 for all
eight; the paper describes the same 1/4-probability class via the
value range 196-255). Each iteration takes ~256 us, so the expected
time to success is ~16 seconds, and within 5 minutes the attacker
inflicts ~1145 activations (Figure 5).

The curve of Figure 5 is produced by sampling iteration outcomes with
the closed-form queue dynamics (validated against the full simulator by
:func:`run_randomized_jailbreak_iteration` and the test-suite).
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

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
from repro.sim.channel import ChannelSim


def _panopticon_sim(
    threshold: int,
    queue_entries: int,
    run: AttackRunConfig,
    initial_counter: Optional[Callable[[int], int]] = None,
) -> ChannelSim:
    return build_channel(
        run,
        lambda: PanopticonPolicy(
            queue_threshold=threshold, queue_entries=queue_entries
        ),
        reset_policy=CounterResetPolicy.FREE_RUNNING,
        trefi_per_mitigation=4,  # Panopticon: 4 victim rows, no reset ACT
        reset_counter_on_mitigation=False,
        initial_counter=initial_counter,
    )


def run_deterministic_jailbreak(
    threshold: int = 128,
    queue_entries: int = 8,
    acts_per_trefi_phase2: int = 32,
    max_periods: int = 64,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Execute the deterministic Jailbreak pattern against Panopticon.

    Returns an :class:`AttackResult` whose ``acts_on_attack_row`` is the
    number of activations row H received before its first mitigation
    (1152 for the paper's configuration).
    """
    run = run or AttackRunConfig()
    require_single_subchannel(run, "jailbreak")
    rows = attack_rows(run, queue_entries)
    sim = _panopticon_sim(threshold, queue_entries, run)
    with MitigationLog(sim) as log:
        attack_row = rows[-1]

        # Phase 1: circular activation fills the queue, H last. The final
        # circular round (where all 8 rows cross the threshold and enter the
        # queue) is aligned to land just after a mitigation-period boundary,
        # so every enqueued entry waits full periods before service — the
        # paper's accounting of 8 x 128 activations while H is enqueued.
        acts_on_h = 0
        period_ns = 4 * sim.timing.t_refi
        for _ in range(threshold - 1):
            for row in rows:
                sim.activate(row)
                if row == attack_row:
                    acts_on_h += 1
        boundary = (int(sim.now // period_ns) + 1) * period_ns
        sim.advance_to(boundary + sim.timing.t_rfc)
        for row in rows:
            sim.activate(row)
            if row == attack_row:
                acts_on_h += 1

        # Phase 2: hammer H at a rate of one queue insertion per mitigation
        # period, starting one tREFI after the fill so each re-crossing of
        # the threshold lands just after that period's FIFO service (the
        # service-then-insert interleave that keeps the queue at capacity
        # without overflowing). Stop at H's first mitigation.
        trefi = sim.timing.t_refi
        sim.advance_to(boundary + period_ns / 4.0 + sim.timing.t_rfc)
        for _ in range(max_periods * 8):
            interval_start = sim.now
            for _ in range(acts_per_trefi_phase2):
                sim.activate(attack_row)
                acts_on_h += 1
                if log.was_mitigated(attack_row):
                    break
            if log.was_mitigated(attack_row):
                break
            sim.advance_to(interval_start + trefi)
        sim.flush()

    return AttackResult(
        name="jailbreak-deterministic",
        acts_on_attack_row=acts_on_h,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"threshold": threshold, "queue_entries": queue_entries},
    )


def is_heavy_weight(counter: int, threshold: int = 128, prime_acts: int = 32) -> bool:
    """Whether a row with this initial counter crosses a multiple of the
    queueing threshold within ``prime_acts`` activations.

    This is the functional definition of the paper's "heavy-weight" row;
    for threshold 128 and 32 priming activations the probability over a
    uniform 0-255 counter is 1/4 (Section 3.3).
    """
    remainder = counter % threshold
    return remainder >= threshold - prime_acts


def run_randomized_jailbreak_iteration(
    initial_counters: List[int],
    attack_row_counter: int,
    threshold: int = 128,
    queue_entries: int = 8,
    prime_acts: int = 32,
    max_attack_acts: int = 4096,
    run: Optional[AttackRunConfig] = None,
) -> AttackResult:
    """Fully simulate ONE iteration of the randomized Jailbreak.

    Args:
        initial_counters: Initial counter values of the 8 decoy rows.
        attack_row_counter: Initial counter value of the attack row X.

    The attacker primes each decoy with ``prime_acts`` circular
    activations, then hammers X (paced at 32 per tREFI) until X is
    mitigated. Successful iterations (all decoys heavy-weight) yield
    ~9x the queueing threshold on X.
    """
    if len(initial_counters) != queue_entries:
        raise ValueError("need one initial counter per decoy row")
    run = run or AttackRunConfig()
    require_single_subchannel(run, "jailbreak (randomized)")
    rows = attack_rows(run, queue_entries + 1)
    decoys, attack_row = rows[:-1], rows[-1]
    values = dict(zip(decoys, initial_counters))
    values[attack_row] = attack_row_counter

    sim = _panopticon_sim(
        threshold,
        queue_entries,
        run,
        initial_counter=lambda row: values.get(row, 0),
    )
    with MitigationLog(sim) as log:
        # Phase 1: 32 circular activations per decoy.
        for _ in range(prime_acts):
            for row in decoys:
                sim.activate(row)

        # Wait one mitigation period so at least one enqueued decoy is
        # serviced before X can cross — otherwise X's insertion into a full
        # queue overflows and raises an ALERT, wasting the iteration.
        period = 4 * sim.timing.t_refi
        sim.advance_to(sim.now + period)

        # Phase 2: hammer X, paced to one insertion per mitigation period.
        acts_on_x = 0
        trefi = sim.timing.t_refi
        while acts_on_x < max_attack_acts and not log.was_mitigated(attack_row):
            interval_start = sim.now
            for _ in range(prime_acts):
                sim.activate(attack_row)
                acts_on_x += 1
                if log.was_mitigated(attack_row):
                    break
            sim.advance_to(interval_start + trefi)
        sim.flush()

    heavy = sum(
        1 for counter in initial_counters if is_heavy_weight(counter, threshold, prime_acts)
    )
    return AttackResult(
        name="jailbreak-randomized-iteration",
        acts_on_attack_row=acts_on_x,
        max_danger=sim.bank.max_danger,
        alerts=sim.alerts,
        elapsed_ns=sim.now,
        total_acts=sim.total_acts,
        subchannels=run.subchannels,
        details={"heavy_decoys": heavy},
    )


def iteration_acts_closed_form(
    heavy_decoys: int,
    attack_row_counter: int,
    threshold: int = 128,
    queue_entries: int = 8,
) -> int:
    """Closed-form activations achieved on X in one iteration.

    X needs ``threshold - (counter mod threshold)`` activations to
    enter the queue. By then one heavy decoy has been serviced (the
    attacker idles one mitigation period after priming precisely to
    guarantee this), so X waits behind ``max(0, h - 1)`` entries plus
    its own service period, receiving ``threshold`` activations per
    period at the paced rate. Validated against the full simulator in
    the test-suite.
    """
    to_enqueue = threshold - (attack_row_counter % threshold)
    ahead = max(0, min(heavy_decoys, queue_entries) - 1)
    return to_enqueue + threshold * (ahead + 1)


def randomized_jailbreak_curve(
    iteration_counts: List[int],
    threshold: int = 128,
    queue_entries: int = 8,
    prime_acts: int = 32,
    seed: int = 0,
) -> Dict[int, int]:
    """Figure 5 data: best activations-on-attack-row after N iterations.

    Samples iteration outcomes (decoy counters uniform over 0-255, the
    probability-relevant quantity) and applies the closed-form queue
    dynamics per iteration. Returns ``{iterations: best_acts}``.
    """
    rng = random.Random(seed)
    results: Dict[int, int] = {}
    best = 0
    done = 0
    counter_range = 2 * threshold
    for target in sorted(iteration_counts):
        while done < target:
            decoys = [rng.randrange(counter_range) for _ in range(queue_entries)]
            attack_counter = rng.randrange(counter_range)
            heavy = sum(
                1 for c in decoys if is_heavy_weight(c, threshold, prime_acts)
            )
            acts = iteration_acts_closed_form(
                heavy, attack_counter, threshold, queue_entries
            )
            best = max(best, acts)
            done += 1
        results[target] = best
    return results
