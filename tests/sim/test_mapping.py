"""Tests for the CoffeeLake-style address mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.mapping import AddressMapping, CoffeeLakeMapping


@pytest.fixture
def mapping() -> CoffeeLakeMapping:
    return CoffeeLakeMapping()


class TestDecode:
    def test_num_banks(self, mapping):
        assert mapping.num_banks == 32

    def test_decode_zero(self, mapping):
        addr = mapping.decode(0)
        assert addr.bank == 0
        assert addr.row == 0
        assert addr.subchannel == 0
        assert addr.column == 0

    def test_row_field(self, mapping):
        decoded = mapping.decode(5 << 18)
        assert decoded.row == 5

    def test_bank_depends_on_row_bits(self, mapping):
        # Bank hashes XOR a low bit with a row bit, so walking rows in
        # the same 256 KB region changes the bank.
        banks = {mapping.decode(row << 18).bank for row in range(32)}
        assert len(banks) > 1

    def test_negative_address_rejected(self, mapping):
        with pytest.raises(ValueError):
            mapping.decode(-1)


class TestCompose:
    @given(
        subchannel=st.integers(0, 1),
        bank=st.integers(0, 31),
        row=st.integers(0, 2**16 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_compose_decode_roundtrip(self, subchannel, bank, row):
        mapping = CoffeeLakeMapping()
        addr = mapping.compose(subchannel, bank, row)
        decoded = mapping.decode(addr)
        assert decoded.subchannel == subchannel
        assert decoded.bank == bank
        assert decoded.row == row

    def test_compose_requires_fixup_bits(self):
        bad = AddressMapping(bank_functions=[[20, 21]], subchannel_bits=[6])
        with pytest.raises(ValueError):
            bad.compose(0, 1, 0)


class TestGenericMapping:
    def test_single_bank_function(self):
        mapping = AddressMapping(
            bank_functions=[[13]], subchannel_bits=[6], row_shift=16, row_bits=8
        )
        assert mapping.num_banks == 2
        assert mapping.decode(1 << 13).bank == 1
        assert mapping.decode(0).bank == 0

    def test_num_subchannels(self):
        assert CoffeeLakeMapping().num_subchannels == 2
        flat = AddressMapping(bank_functions=[[13]], subchannel_bits=[])
        assert flat.num_subchannels == 1


# Generic-mapping strategy: 1-5 bank hash functions, each pairing a
# dedicated low toggle bit (so compose() can fix the hash up) with an
# optional row bit, CoffeeLake-style.
@st.composite
def generic_mappings(draw):
    row_shift = 18
    row_bits = draw(st.integers(4, 16))
    n_bank_bits = draw(st.integers(1, 5))
    bank_functions = []
    for i in range(n_bank_bits):
        toggle = 13 + i  # distinct low bit per hash
        bits = [toggle]
        if draw(st.booleans()):
            bits.append(row_shift + draw(st.integers(0, row_bits - 1)))
        bank_functions.append(bits)
    subchannel_bits = [6] + ([12] if draw(st.booleans()) else [])
    return AddressMapping(
        bank_functions=bank_functions,
        subchannel_bits=subchannel_bits,
        row_shift=row_shift,
        row_bits=row_bits,
        column_mask_bits=draw(st.integers(0, 12)),
    )


class TestGenericRoundTrip:
    @given(mapping=generic_mappings(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_compose_decode_roundtrip(self, mapping, data):
        subchannel = data.draw(st.integers(0, mapping.num_subchannels - 1))
        bank = data.draw(st.integers(0, mapping.num_banks - 1))
        row = data.draw(st.integers(0, (1 << mapping.row_bits) - 1))
        addr = mapping.compose(subchannel, bank, row)
        decoded = mapping.decode(addr)
        assert decoded.subchannel == subchannel
        assert decoded.bank == bank
        assert decoded.row == row

    @given(mapping=generic_mappings(), addr=st.integers(0, 2**34 - 1))
    @settings(max_examples=200, deadline=None)
    def test_decode_compose_decode_is_stable(self, mapping, addr):
        """compose() of a decode lands on the same DRAM coordinates
        (the address may differ — compose picks *an* address)."""
        decoded = mapping.decode(addr)
        again = mapping.decode(
            mapping.compose(decoded.subchannel, decoded.bank, decoded.row)
        )
        assert (again.subchannel, again.bank, again.row) == (
            decoded.subchannel,
            decoded.bank,
            decoded.row,
        )

