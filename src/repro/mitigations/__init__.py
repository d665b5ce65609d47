"""In-DRAM Rowhammer mitigation policies.

The paper's contribution (:class:`~repro.mitigations.moat.MoatPolicy`)
plus everything it is compared against or motivated by:

* :class:`~repro.mitigations.panopticon.PanopticonPolicy` — the queue
  design broken by the Jailbreak pattern (Section 3), including the
  Drain-All-Entries-on-REF variant from Appendix B.
* :class:`~repro.mitigations.ideal_perrow.IdealPerRowPolicy` — the
  transparent per-row-counter scheme bounded by feinting (Table 2).
* :class:`~repro.mitigations.trr.TrrTracker` and
  :class:`~repro.mitigations.para.ParaPolicy` — representative low-cost
  trackers from Section 2.4, breakable by many-aggressor patterns.
* :class:`~repro.mitigations.null.NullPolicy` — no mitigation baseline.
"""

from repro.mitigations.base import MitigationPolicy
from repro.mitigations.graphene import (
    graphene_entries_required,
    graphene_sram_bytes,
    make_graphene,
)
from repro.mitigations.ideal_perrow import IdealPerRowPolicy
from repro.mitigations.moat import MoatPolicy, TrackerEntry
from repro.mitigations.null import NullPolicy
from repro.mitigations.panopticon import PanopticonPolicy
from repro.mitigations.para import ParaPolicy
from repro.mitigations.registry import POLICY_KINDS, PolicySpec, RunParams
from repro.mitigations.trr import TrrTracker
from repro.mitigations.victim_counter import VictimCounterPolicy

__all__ = [
    "POLICY_KINDS",
    "MitigationPolicy",
    "IdealPerRowPolicy",
    "MoatPolicy",
    "TrackerEntry",
    "NullPolicy",
    "PanopticonPolicy",
    "ParaPolicy",
    "PolicySpec",
    "RunParams",
    "TrrTracker",
    "VictimCounterPolicy",
    "graphene_entries_required",
    "graphene_sram_bytes",
    "make_graphene",
]
