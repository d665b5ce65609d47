"""One registry for every named, parameterized kind.

The paper's evaluation is a grid of named designs, attacks, analytic
bounds and controller disciplines. Each is a :class:`Kind` — a named
callable with a one-line description — in one of four
:class:`Registry` tables:

=========================================== ======================
``repro.mitigations.registry.POLICY_KINDS`` mitigation policies
``repro.attacks.registry.ATTACK_KINDS``     attacks
``repro.sweep.model_spec.MODEL_KINDS``      analytic models
``repro.mc.sched.SCHED_KINDS``              controller schedulers
=========================================== ======================

A kind's parameters come from its callable's signature, read once at
registration: every named parameter the caller does not bind is a spec
parameter, required when it has no default and sequence-valued when
its annotation names a sequence type. The CLI listings and the
``registry-coverage`` lint rule read the tables directly.

:class:`KindSpec` is the declarative ``(kind, params)`` pair the
policy, attack and model families carry through configs, cache keys
and artifacts. Its one constructor validates a spec against its kind,
stores list values as tuples and sorts ``params`` by name, so equal
specs compare, hash and display equal however they were built.
Schedulers keep a flat ``(scheduler, sched_params)`` pair on their
configs instead (see :mod:`repro.mc.sched`).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

#: Annotation spellings that mark a sequence-valued parameter.
_SEQUENCE_MARKERS = ("List", "Sequence", "Tuple", "list", "tuple")


class Kind:
    """One registered kind: a named callable plus listing fields.

    Args:
        name: The registered name (a spec's ``kind``, a CLI choice).
        call: The builder, runner, evaluator or class the name selects.
        description: One-line description every listing shows.
        bound: Arguments the family's caller binds (a policy builder's
            run parameters and bank index, an attack's run config).
            Only those ``call`` takes are kept; every other named
            parameter is a spec parameter.
        fields: Family listing fields, such as an attack's figure or a
            policy's mitigation cadence.
    """

    def __init__(
        self,
        name: str,
        call: Callable[..., Any],
        description: str,
        bound: Sequence[str] = (),
        **fields: Any,
    ) -> None:
        self.name = name
        self.call = call
        self.description = description
        self.fields = fields
        parameters = inspect.signature(call).parameters
        self.bound = tuple(arg for arg in bound if arg in parameters)
        #: Spec parameters in signature order.
        self.params: Dict[str, inspect.Parameter] = {
            arg: param
            for arg, param in parameters.items()
            if arg not in self.bound
            and param.kind not in (param.VAR_POSITIONAL, param.VAR_KEYWORD)
        }
        self.defaults = {
            arg: param.default
            for arg, param in self.params.items()
            if param.default is not param.empty
        }
        self.required = tuple(
            arg for arg in self.params if arg not in self.defaults
        )
        self.sequences = frozenset(
            arg
            for arg, param in self.params.items()
            if any(m in str(param.annotation) for m in _SEQUENCE_MARKERS)
        )


class Registry:
    """Kinds in registration order, looked up by name.

    Iterating yields the :class:`Kind` objects. ``label`` names the
    family in spec errors ("policy 'moat' has no parameter ...");
    ``noun`` is what an unknown name is reported as (default
    ``"<label> kind"``).
    """

    def __init__(
        self, label: str, kinds: Sequence[Kind], noun: Optional[str] = None,
    ) -> None:
        self.label = label
        self.noun = noun or f"{label} kind"
        self._kinds = {kind.name: kind for kind in kinds}

    def __getitem__(self, name: str) -> Kind:
        try:
            return self._kinds[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.noun} {name!r}; "
                f"known: {', '.join(self._kinds)}"
            ) from None

    def __iter__(self) -> Iterator[Kind]:
        return iter(self._kinds.values())

    def names(self) -> Tuple[str, ...]:
        """Registered names, registration order."""
        return tuple(self._kinds)


S = TypeVar("S", bound="KindSpec")


@dataclass(frozen=True)
class KindSpec:
    """Declarative, hashable, picklable ``(kind, params)`` pair.

    Subclasses set ``registry`` and a default ``kind``. ``params`` is
    a name-sorted tuple of ``(name, value)`` pairs, list values stored
    as tuples; use :meth:`of` to build one from keywords. Construction
    rejects an unknown kind or parameter name, a sequence for a scalar
    parameter, and a missing required parameter.
    """

    kind: str
    params: Tuple[Tuple[str, Any], ...] = ()

    registry: ClassVar[Registry]

    def __post_init__(self) -> None:
        kind = self.registry[self.kind]
        params = tuple(sorted(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in self.params
        ))
        where = f"{self.registry.label} {self.kind!r}"
        for name, value in params:
            if name not in kind.params:
                raise ValueError(
                    f"{where} has no parameter {name!r}; "
                    f"known: {', '.join(sorted(kind.params)) or '(none)'}"
                )
            if isinstance(value, tuple) and name not in kind.sequences:
                raise ValueError(
                    f"{where} parameter {name!r} takes a single value, "
                    "not a sequence"
                )
        given = {name for name, _ in params}
        missing = [name for name in kind.required if name not in given]
        if missing:
            raise ValueError(
                f"{where} requires parameters: {', '.join(missing)}"
            )
        object.__setattr__(self, "params", params)

    @classmethod
    def of(cls: Type[S], kind: str, **params: Any) -> S:
        return cls(kind, tuple(params.items()))

    def param_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def display_name(self) -> str:
        """``kind`` or ``kind(k=v,...)``: the point-key spelling."""
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def replaced(self: S, **params: Any) -> S:
        """Copy with parameter overrides applied (only known names)."""
        return self.of(self.kind, **{**self.param_dict(), **params})
