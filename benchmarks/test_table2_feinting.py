"""Table 2: Feinting T_RH bound for per-row counters.

Reproduces both the analytical bound (n * H(M)) and the simulated
feinting attack against the idealized per-row tracker for every
mitigation rate the paper sweeps.

The bounds are the claims on the table's rows (``repro report table2``
prints them). Each test here gates the rows of one part of the table;
``test_figures.py::test_figure[table2]`` gates all of them.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure


@pytest.fixture(scope="module")
def table2():
    return run_figure("table2")


def test_table2_analytical(table2):
    assert_claims_hold(table2, "T_RH bound, 1 per")


def test_table2_simulated(table2):
    assert_claims_hold(table2, "simulated, 1 per")
