"""Storage and energy overhead accounting (paper Section 6.5, App D).

MOAT's SRAM cost per bank is 3 bytes per tracker entry (row address +
counter copy), 2 bytes for the CMA register, and 2 bytes for the two
safe-reset shadow counters: 7 B at level 1, 10 B at level 2, 16 B at
level 4 (224/320/512 B per 32-bank chip).

The energy overhead is the mitigation activations (victim refreshes and
counter resets) relative to baseline activations; with activation
energy below 20% of DRAM energy, a 2.3% activation increase is a
sub-0.5% total energy increase.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.timing import check_abo_level


def moat_sram_bytes(level: int = 1) -> int:
    """SRAM bytes per bank for MOAT at the given ABO level."""
    check_abo_level(level)
    return 3 * level + 2 + 2


def moat_sram_bytes_per_chip(level: int = 1, banks: int = 32) -> int:
    """SRAM bytes per chip (32 banks by default)."""
    return moat_sram_bytes(level) * banks


@dataclass(frozen=True)
class EnergyOverhead:
    """Activation-energy overhead of a mitigation run."""

    baseline_activations: int
    mitigation_activations: int
    activation_energy_share: float = 0.20

    @property
    def activation_overhead(self) -> float:
        """Relative increase in total activations."""
        if self.baseline_activations == 0:
            return 0.0
        return self.mitigation_activations / self.baseline_activations

    @property
    def total_energy_overhead(self) -> float:
        """Relative increase in total DRAM energy (Section 6.5 bound)."""
        return self.activation_overhead * self.activation_energy_share


def activation_energy_overhead(
    baseline_activations: int,
    mitigation_activations: int,
    activation_energy_share: float = 0.20,
) -> EnergyOverhead:
    """Build the Section 6.5 energy-overhead record."""
    return EnergyOverhead(
        baseline_activations, mitigation_activations, activation_energy_share
    )
