"""Figure 5: breaking deterministic and randomized Panopticon.

The deterministic Jailbreak reaches ~9x the queueing threshold in one
shot; the randomized variant gets there probabilistically, improving
with the number of iterations (success probability 2^-16 per
iteration).

The bounds are the claims on the figure's rows (``repro report fig5``
prints them). Each test here gates the rows of one part of the figure;
``test_figures.py::test_figure[fig5]`` gates all of them.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure


@pytest.fixture(scope="module")
def fig5():
    return run_figure("fig5")


def test_fig5_deterministic(fig5):
    assert_claims_hold(fig5, "deterministic")


def test_fig5_randomized_curve(fig5):
    # The curve's best, and each iteration budget against the previous.
    assert_claims_hold(fig5, "randomized best ACTs")


def test_fig5_randomized_iteration_validates_model(fig5):
    """Full-simulator spot check of the sampled curve's physics: a
    fully-heavy iteration lands in the same range as the model."""
    assert_claims_hold(fig5, "all-heavy iteration ACTs")
