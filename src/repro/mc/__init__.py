"""Closed-loop memory-controller subsystem.

Request-driven simulation on top of the channel hierarchy: a
:class:`Request` stream flows through per-bank queues of configurable
depth, a pluggable scheduling policy (:mod:`repro.mc.sched`: FCFS,
FR-FCFS, and the per-client QoS kinds), and an open/closed row-buffer
policy; REF and ABO/ALERT recovery back-pressure the queues, so
mitigation cost is measured as read-latency percentiles and achieved
bandwidth instead of an open-loop stall fraction. The performance
front-end lives in :mod:`repro.sim.mc`; request generators in
:mod:`repro.workloads.requests`.
"""

from repro.mc.controller import (
    McConfig,
    MemoryController,
    ROW_POLICIES,
)
from repro.mc.request import CompletedRequest, Request
from repro.mc.sched import (
    SCHEDULERS,
    SchedPolicy,
    sched_descriptions,
    sched_display,
    sched_kinds,
)

__all__ = [
    "CompletedRequest",
    "McConfig",
    "MemoryController",
    "ROW_POLICIES",
    "Request",
    "SCHEDULERS",
    "SchedPolicy",
    "sched_descriptions",
    "sched_display",
    "sched_kinds",
]
