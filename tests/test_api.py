"""Public API surface tests."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_snippet():
    """The docstring quickstart must work verbatim."""
    from repro import MoatPolicy, SimConfig, SubchannelSim

    sim = SubchannelSim(SimConfig(), lambda: MoatPolicy(ath=64))
    for _ in range(200):
        sim.activate(row=1000)
    stats = sim.stats()
    assert stats["total_acts"] == 200
    assert stats["max_danger"] <= 99  # the paper's tolerated T_RH


def test_system_and_family_exports():
    """PR 6 additions: the system layer and the sweep-family registry
    are part of the top-level API."""
    from repro import (
        FAMILIES,
        ClientSpec,
        SweepFamily,
        SystemResult,
        SystemRunConfig,
        get_family,
        run_system,
    )

    assert callable(run_system)
    assert SystemResult is not None
    config = SystemRunConfig(clients=(ClientSpec(name="t0"),))
    assert config.eth_resolved == 32
    assert set(FAMILIES) == {"sweep", "attack", "model", "mc", "system"}
    for family in FAMILIES.values():
        assert isinstance(family, SweepFamily)
        assert family is get_family(family.name)
    assert get_family("system").schema == "repro.system/v1"


def test_policy_classes_share_interface():
    from repro import (
        IdealPerRowPolicy,
        MitigationPolicy,
        MoatPolicy,
        NullPolicy,
        PanopticonPolicy,
        ParaPolicy,
        TrrTracker,
    )

    for cls in (
        IdealPerRowPolicy,
        MoatPolicy,
        NullPolicy,
        PanopticonPolicy,
        ParaPolicy,
        TrrTracker,
    ):
        policy = cls()
        assert isinstance(policy, MitigationPolicy)
        assert isinstance(policy.sram_bytes(), int)
        assert isinstance(policy.describe(), str)
