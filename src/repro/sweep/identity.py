"""Sweep identity: the rules every sweep family names its points by.

A spec expands into points; each point has a readable ``key`` (the
artifact's point map, joined against the baseline) and a
``config_hash`` (the point cache's key and the baseline's identity
check), and ``sweep_hash`` names the whole grid. System channel shards
hash the same way. The conventions keep a committed baseline valid
exactly as long as the simulation it pins:

* **Resolved values.** Optional fields hash at their resolved values
  (ETH at ATH/2, the proactive cadence at the policy's native rate),
  so ``eth=None`` and ``eth=32`` share one identity, as their keys do.
* **Neutral axes.** An axis added after a family's baselines were
  committed goes in that module's ``_NEUTRAL_AXES`` with the value at
  which it leaves the simulation unchanged; :func:`strip_neutral`
  drops it there (and the key omits it), so older baselines and cache
  entries survive. The ``hash-neutrality`` lint rule makes every spec
  field reach an identity function or that table.
* **Dead knobs.** A parameter the simulation never reads hashes at its
  default (:func:`workload_payload`), so equal runs share one identity.
* **One version.** :data:`RESULT_VERSION` is in every point and shard
  hash. Bump it only to retire every baseline on a deliberate semantic
  change; the point cache already recomputes after any code change
  (``repro.sweep.runner.source_fingerprint``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, TypeVar

from repro.workloads.requests import McWorkload

#: Part of every point's and channel shard's config hash.
RESULT_VERSION = 1

_DEFAULT_WORKLOAD = McWorkload()

T = TypeVar("T")


def canonical(value: Any) -> Any:
    """JSON-stable view of nested dataclasses / tuples."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    return value


def content_hash(payload: Any) -> str:
    """The 16-hex-digit identity of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def point_hash(**parts: Any) -> str:
    """Config hash of a point or shard: its parts and the version."""
    return content_hash({"version": RESULT_VERSION, **parts})


def strip_neutral(
    payload: Dict[str, Any], neutral_axes: Mapping[str, Any]
) -> Dict[str, Any]:
    """Drop every axis sitting at its neutral value (in place)."""
    for name, neutral in neutral_axes.items():
        if payload.get(name) == neutral:
            del payload[name]
    return payload


def workload_payload(workload: McWorkload) -> Dict[str, Any]:
    """Canonical arrival workload; only the bursty generator reads the
    burst knobs, so a Poisson workload hashes them at their defaults."""
    if workload.process != "bursty":
        workload = dataclasses.replace(
            workload,
            burst_trefi=_DEFAULT_WORKLOAD.burst_trefi,
            idle_trefi=_DEFAULT_WORKLOAD.idle_trefi,
        )
    return canonical(workload)


def unique_by_key(points: Iterable[T]) -> List[T]:
    """The points in order, minus later ones repeating a ``key`` (cells
    that resolve to the same run appear once)."""
    out: List[T] = []
    seen = set()
    for point in points:
        if point.key not in seen:
            seen.add(point.key)
            out.append(point)
    return out


def replace_given(obj: T, **changes: Any) -> T:
    """``dataclasses.replace`` with the changes that are not ``None``;
    ``obj`` itself when none are."""
    given = {k: v for k, v in changes.items() if v is not None}
    return dataclasses.replace(obj, **given) if given else obj


def lookup_preset(presets: Mapping[str, T], family: str, name: str) -> T:
    """Look up a preset by name with a helpful error."""
    try:
        return presets[name]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise KeyError(
            f"unknown {family} preset {name!r}; known: {known}"
        ) from None


class SweepSpecBase:
    """The base of every family's spec (a dataclass with a ``name`` and
    a ``points()`` expansion): its grid identity and override path."""

    #: The overrides a spec applies to its own same-named fields. A
    #: ``seed`` it lacks is refused (:meth:`_refuse_seed`); a scale or
    #: workload subset passes through, as the report hands both to
    #: every family.
    _OVERRIDES: Sequence[str] = ()

    def sweep_hash(self) -> str:
        """Identity of the whole grid (order-independent)."""
        hashes = sorted(p.config_hash() for p in self.points())
        return content_hash([self.name, hashes])

    def _refuse_seed(self, seed: Optional[int]) -> None:
        """Raise ``ValueError`` for a ``seed`` when the points have no
        seed axis (a run at another seed would repeat this one)."""
        if seed is not None and "seed" not in self._OVERRIDES:
            raise ValueError(
                f"preset {self.name!r} has no seed axis: its points are "
                "deterministic"
            )

    def with_overrides(
        self,
        n_trefi: Optional[int] = None,
        seed: Optional[int] = None,
        workloads: Optional[Sequence[str]] = None,
    ):
        """Copy at another scale, seed, or Table 4 workload subset; the
        spec itself when nothing it applies is given."""
        self._refuse_seed(seed)
        given = {"n_trefi": n_trefi, "seed": seed, "workloads": workloads}
        return replace_given(self, **{k: given[k] for k in self._OVERRIDES})
