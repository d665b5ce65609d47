"""Figure 10: max ACTs on the attack row vs ATH (Ratchet, ABO level 1).

The analytical model reproduces the published curve (99 at ATH=64, 161
at ATH=128); the simulated attack validates that concrete executions
stay at-or-below the model while exceeding ATH.

The bounds are the claims on the figure's rows (``repro report fig10``
prints them). Each test here gates the rows of one part of the figure;
``test_figures.py::test_figure[fig10]`` gates all of them.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure


@pytest.fixture(scope="module")
def fig10():
    return run_figure("fig10")


def test_fig10_model_curve(fig10):
    assert_claims_hold(fig10, "safe T_RH @ ATH=")


def test_fig10_simulated_points(fig10):
    assert_claims_hold(fig10, "Ratchet exposure @ ATH=")
