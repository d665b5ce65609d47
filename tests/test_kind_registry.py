"""One suite over the four kind registries.

Mitigation policies, attacks, analytic models and schedulers share one
:class:`~repro.registry.Registry`: a kind's spec parameters are its
callable's parameters minus what the family's caller binds, and one
:class:`~repro.registry.KindSpec` constructor validates and
canonicalizes the ``(kind, params)`` pairs of the first three.
"""

import inspect

import pytest

from repro.attacks.base import AttackRunConfig
from repro.attacks.registry import ATTACK_KINDS, AttackSpec
from repro.cli import main
from repro.mc.controller import McConfig
from repro.mc.sched import (
    SCHED_KINDS,
    SCHEDULERS,
    sched_display,
    validate_sched,
)
from repro.mitigations.registry import POLICY_KINDS, PolicySpec
from repro.sweep.attack_spec import AttackSweepPoint
from repro.sweep.model_spec import MODEL_KINDS, ModelSpec

#: Each registry, its spec class (schedulers have none: configs carry
#: a flat ``(scheduler, sched_params)`` pair), and what its caller binds.
FAMILIES = {
    "policy": (POLICY_KINDS, PolicySpec, {"run", "index"}),
    "attack": (ATTACK_KINDS, AttackSpec, {"run"}),
    "model": (MODEL_KINDS, ModelSpec, set()),
    "scheduler": (SCHED_KINDS, None, {"priorities", "t_col", "depth"}),
}

#: Geometry lives on the run configs; no kind takes it as a parameter.
GEOMETRY = {"rows_per_bank", "num_groups", "num_refresh_groups", "timing"}

family = pytest.mark.parametrize("name", list(FAMILIES))


@family
def test_descriptions_cover_every_kind(name):
    registry = FAMILIES[name][0]
    assert registry.names()
    for kind in registry:
        assert kind.description.strip(), kind.name
        assert registry[kind.name] is kind


@family
def test_every_parameter_is_bound_or_a_spec_parameter(name):
    registry, _, caller_binds = FAMILIES[name]
    for kind in registry:
        signature = inspect.signature(kind.call).parameters
        named = {
            arg for arg, param in signature.items()
            if param.kind is not param.VAR_KEYWORD
        }
        assert set(kind.bound) <= caller_binds, kind.name
        assert named == set(kind.bound) | set(kind.params), kind.name
        assert not GEOMETRY & set(kind.params), kind.name


@family
def test_unknown_kind_and_parameter_errors(name):
    registry, spec, _ = FAMILIES[name]
    first = registry.names()[0]
    if spec is None:
        with pytest.raises(ValueError, match=(
                r"unknown scheduler 'elevator'; "
                r"known: fcfs, frfcfs, priority, bw-cap, slo")):
            validate_sched("elevator")
        with pytest.raises(ValueError, match="unknown sched param"):
            validate_sched(first, (("bogus", 1),))
        return
    with pytest.raises(ValueError, match=f"unknown {name} kind 'bogus'"):
        spec("bogus")
    with pytest.raises(ValueError,
                       match=f"{name} '{first}' has no parameter 'bogus'"):
        spec.of(first, bogus=1)


@pytest.mark.parametrize("spec, kind, param", [
    pytest.param(PolicySpec, "trr", "entries", id="policy"),
    pytest.param(AttackSpec, "ratchet", "pool_size", id="attack"),
    pytest.param(ModelSpec, "safe-trh", "ath", id="model"),
])
@pytest.mark.parametrize("value", [[16], (16,)], ids=["list", "tuple"])
def test_sequence_for_a_scalar_parameter_fails_at_construction(
        spec, kind, param, value):
    with pytest.raises(ValueError, match="takes a single value"):
        spec.of(kind, **{param: value})


def test_list_and_tuple_built_attack_specs_are_one_spec():
    """One config, one cache entry: a list-built spec used to be
    unhashable and to get a second point key for the same hash."""
    listed = AttackSpec.of("jailbreak-randomized",
                           initial_counters=[112] * 8, attack_row_counter=96)
    tupled = AttackSpec.of("jailbreak-randomized",
                           initial_counters=(112,) * 8, attack_row_counter=96)
    assert listed == tupled
    assert hash(listed) == hash(tupled)
    assert listed.params == tupled.params
    run = AttackRunConfig()
    a, b = AttackSweepPoint(listed, run), AttackSweepPoint(tupled, run)
    assert a.key == b.key
    assert a.config_hash() == b.config_hash()


def test_list_and_tuple_built_sched_params_are_one_config():
    listed = McConfig(scheduler="bw-cap", sched_params=[["gbps", 8.0]])
    tupled = McConfig(scheduler="bw-cap", sched_params=(("gbps", 8.0),))
    assert listed == tupled and hash(listed) == hash(tupled)
    assert (sched_display(listed.scheduler, listed.sched_params)
            == sched_display(tupled.scheduler, tupled.sched_params)
            == "bw-cap(gbps=8)")


def test_every_attack_names_its_figure():
    for kind in ATTACK_KINDS:
        assert kind.fields["figure"], kind.name


def test_scheduler_listing_shows_class_defaults(capsys):
    assert main(["mc", "list-scheds"]) == 0
    rows = {
        line.split()[0]: line
        for line in capsys.readouterr().out.splitlines()
        if line.split() and line.split()[0] in SCHEDULERS
    }
    assert set(rows) == set(SCHEDULERS)
    assert rows["fcfs"].split()[1] == "-"
    assert "budget_ns=10000, window=256" in rows["slo"]
    assert "gbps=1" in rows["bw-cap"]
