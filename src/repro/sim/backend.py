"""The name of the implementation that runs the simulator's hot loops.

The engine's ACT burst and the controller's closed-page serve loop
exist twice: the scalar references (:meth:`SubchannelSim.activate`,
:meth:`MemoryController.run_streams_reference`), kept as the oracle,
and the struct-of-arrays loops every eligible run executes. There is
no other implementation to select, so :func:`resolve_backend` always
names ``pure``; it remains so that benchmark records and provenance
blocks keep identifying the code that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Backend:
    """The implementation that ran a simulation."""

    name: str


_PURE = Backend(name="pure")


def resolve_backend(name: Optional[str] = None) -> Backend:
    """The ``pure`` implementation; any other name is an error."""
    if name not in (None, "pure"):
        raise ValueError(f"unknown backend {name!r}; the only one is 'pure'")
    return _PURE
