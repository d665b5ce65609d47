"""Feinting attack bound for transparent per-row-counter schemes.

Paper Table 2 (Section 2.5) bounds the Rowhammer threshold tolerated by
an idealized per-row tracker that mitigates the maximum-count row once
every ``k`` tREFI. The classic feinting argument (Marazzi et al.,
ProTRR): with ``n`` activations available per mitigation period and
``m`` periods remaining, the attacker spreads activations evenly over
``m`` candidate rows and sacrifices the mitigated row each period; the
survivor of ``m`` periods accumulates

    T_feint(m) = n/m + n/(m-1) + ... + n/1 = n * H(m)

activations. With DDR5 timings there are 67 activations per tREFI and
8192 REFs per tREFW, giving the paper's Table 2 values (638 at k=1 up
to 2669 at k=5).

Two evaluators are provided: the closed form (harmonic sum of real
numbers) and an exact integer water-filling that distributes whole
activations (what a real attacker would do); the two agree within a few
activations.
"""

from __future__ import annotations

from repro.dram.timing import DramTiming, DDR5_PRAC_TIMING


def harmonic(m: int) -> float:
    """Exact harmonic number H(m) = sum_{i=1..m} 1/i."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return sum(1.0 / i for i in range(1, m + 1))


def feinting_bound(
    trefi_per_mitigation: int,
    timing: DramTiming = DDR5_PRAC_TIMING,
) -> float:
    """Closed-form feinting bound: ``n * H(M)``.

    Args:
        trefi_per_mitigation: Mitigation rate ``k`` (1 aggressor row per
            ``k`` tREFI).
        timing: DRAM timing parameters.

    Returns:
        The maximum activation count an attacker can inflict on one row
        before it is mitigated (the tolerated T_RH of the scheme).
    """
    if trefi_per_mitigation <= 0:
        raise ValueError("trefi_per_mitigation must be positive")
    acts_per_period = timing.acts_per_trefi * trefi_per_mitigation
    periods = timing.refs_per_refw // trefi_per_mitigation
    return acts_per_period * harmonic(periods)


def feinting_bound_exact(
    trefi_per_mitigation: int,
    timing: DramTiming = DDR5_PRAC_TIMING,
) -> int:
    """Discrete-schedule feinting bound (whole activations per period).

    The survivor's fractional share with ``r`` rows remaining is
    ``n / r``; a concrete schedule allocates the integer difference of
    the running cumulative sum each period (the attacker rotates the
    remainder across candidate rows, so no period exceeds its ``n``
    activation budget). The result is ``floor`` of the fractional bound
    and differs from :func:`feinting_bound` by less than one activation.
    """
    if trefi_per_mitigation <= 0:
        raise ValueError("trefi_per_mitigation must be positive")
    acts_per_period = timing.acts_per_trefi * trefi_per_mitigation
    periods = timing.refs_per_refw // trefi_per_mitigation
    total = 0
    cumulative = 0.0
    for remaining in range(periods, 0, -1):
        cumulative += acts_per_period / remaining
        allocation = int(cumulative) - total
        total += allocation
    return total

