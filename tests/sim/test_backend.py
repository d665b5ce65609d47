"""The backend stub: one implementation, named ``pure``.

The struct-of-arrays loops and the scalar references are the only
implementations of the hot loops, so the name that benchmark records
and provenance blocks carry is always ``pure``, and asking for any
other implementation fails loudly instead of silently running ``pure``.
"""

import pytest

from repro.sim.backend import resolve_backend


class TestResolution:
    def test_default_is_pure(self):
        assert resolve_backend().name == "pure"
        assert resolve_backend("pure").name == "pure"

    def test_unknown_name_raises(self):
        for name in ("numba", "kernel", "cython"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(name)
