"""Section 6.5 / Appendix D: storage and energy overheads of MOAT.

The bounds are the claims on the section's rows (``repro report
sec65`` prints them). Each test here gates the rows of one part of the
section; ``test_figures.py::test_figure[sec65]`` gates all of them.
"""

import pytest

from benchmarks.conftest import assert_claims_hold, run_figure


@pytest.fixture(scope="module")
def sec65():
    return run_figure("sec65")


def test_sec65_storage(sec65):
    assert_claims_hold(sec65, "MOAT-L")


def test_sec65_energy(sec65):
    assert_claims_hold(
        sec65, "activation overhead", "total DRAM energy overhead"
    )
