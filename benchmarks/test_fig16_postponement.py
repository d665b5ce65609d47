"""Figure 16 / Appendix B: refresh postponement vs drain-all Panopticon.

The bounds are the claims on the figure's rows (``repro report fig16``
prints them). Each test here gates the rows of one part of the figure;
``test_figures.py::test_figure[fig16]`` gates all of them.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure


@pytest.fixture(scope="module")
def fig16():
    return run_figure("fig16")


def test_fig16_postponement(fig16):
    assert_claims_hold(fig16, "ACTs on attack row (threshold 128)")


def test_fig16_scaling_with_threshold(fig16):
    assert_claims_hold(fig16, "ACTs on attack row (threshold ")
