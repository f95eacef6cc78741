"""Unit and property tests for the bit-level buffer."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FieldRangeError
from repro.util.bitview import BitView


class TestConstruction:
    def test_zeros_allocates_rounded_up_bytes(self):
        assert BitView.zeros(1).byte_length == 1
        assert BitView.zeros(8).byte_length == 1
        assert BitView.zeros(9).byte_length == 2
        assert BitView.zeros(0).byte_length == 0

    def test_zeros_rejects_negative(self):
        with pytest.raises(ValueError):
            BitView.zeros(-1)

    def test_init_copies_input(self):
        source = bytearray(b"\xff\x00")
        view = BitView(source)
        source[0] = 0
        assert view.to_bytes() == b"\xff\x00"

    def test_equality_with_bytes_and_views(self):
        assert BitView(b"\xab") == b"\xab"
        assert BitView(b"\xab") == BitView(b"\xab")
        assert BitView(b"\xab") != BitView(b"\xac")

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(BitView(b"\x00"))


class TestUintAccess:
    def test_byte_aligned_roundtrip(self):
        view = BitView.zeros(32)
        view.set_uint(8, 16, 0xBEEF)
        assert view.get_uint(8, 16) == 0xBEEF
        assert view.to_bytes() == b"\x00\xbe\xef\x00"

    def test_unaligned_roundtrip(self):
        view = BitView.zeros(32)
        view.set_uint(3, 13, 0x1FFF)
        assert view.get_uint(3, 13) == 0x1FFF
        # Neighbouring bits stay clear.
        assert view.get_uint(0, 3) == 0
        assert view.get_uint(16, 16) == 0

    def test_write_does_not_clobber_neighbours(self):
        view = BitView(b"\xff\xff\xff")
        view.set_uint(4, 16, 0)
        assert view.get_uint(0, 4) == 0xF
        assert view.get_uint(20, 4) == 0xF

    def test_zero_width_reads_zero(self):
        view = BitView(b"\xff")
        assert view.get_uint(3, 0) == 0

    def test_zero_width_write_of_nonzero_rejected(self):
        view = BitView(b"\x00")
        with pytest.raises(ValueError):
            view.set_uint(0, 0, 1)

    def test_value_too_wide_rejected(self):
        view = BitView.zeros(16)
        with pytest.raises(ValueError):
            view.set_uint(0, 4, 16)

    def test_negative_value_rejected(self):
        view = BitView.zeros(16)
        with pytest.raises(ValueError):
            view.set_uint(0, 4, -1)

    def test_out_of_range_access_rejected(self):
        view = BitView.zeros(16)
        with pytest.raises(FieldRangeError):
            view.get_uint(10, 8)
        with pytest.raises(FieldRangeError):
            view.set_uint(16, 1, 0)
        with pytest.raises(FieldRangeError):
            view.get_uint(-1, 4)


class TestBitsAccess:
    def test_get_bits_left_aligned(self):
        view = BitView(b"\xab\xcd")
        assert view.get_bits(0, 12) == b"\xab\xc0"

    def test_set_bits_roundtrip_unaligned(self):
        view = BitView.zeros(24)
        view.set_bits(5, 12, b"\xde\xa0")
        assert view.get_bits(5, 12) == b"\xde\xa0"

    def test_set_bits_too_short_rejected(self):
        view = BitView.zeros(24)
        with pytest.raises(FieldRangeError):
            view.set_bits(0, 16, b"\xff")

    def test_single_bits(self):
        view = BitView.zeros(8)
        view.set_uint(7, 1, 1)
        assert view.get_uint(7, 1) == 1
        assert view.to_bytes() == b"\x01"
        view.set_uint(7, 1, 0)
        assert view.to_bytes() == b"\x00"

    def test_extend_grows_with_zeros(self):
        view = BitView(b"\xff")
        view.extend(2)
        assert view.to_bytes() == b"\xff\x00\x00"
        with pytest.raises(ValueError):
            view.extend(-1)


@given(
    data=st.binary(min_size=1, max_size=32),
    offset=st.integers(min_value=0, max_value=255),
    width=st.integers(min_value=1, max_value=64),
    value=st.integers(min_value=0),
)
def test_property_set_get_inverse(data, offset, width, value):
    """Writing then reading any in-range field returns the value."""
    view = BitView(data)
    if offset + width > view.bit_length:
        return
    value %= 1 << width
    view.set_uint(offset, width, value)
    assert view.get_uint(offset, width) == value


@given(
    size=st.integers(min_value=2, max_value=16),
    offset=st.integers(min_value=0, max_value=127),
    width=st.integers(min_value=1, max_value=32),
)
def test_property_write_preserves_outside_bits(size, offset, width):
    """A write touches only its own bit range."""
    view = BitView(bytes([0xAA] * size))
    if offset + width > view.bit_length:
        return
    before = [view.get_uint(i, 1) for i in range(view.bit_length)]
    view.set_uint(offset, width, (1 << width) - 1)
    after = [view.get_uint(i, 1) for i in range(view.bit_length)]
    for i in range(view.bit_length):
        if not offset <= i < offset + width:
            assert before[i] == after[i]


@given(st.binary(max_size=64))
def test_property_bytes_roundtrip(data):
    """to_bytes returns exactly what went in."""
    assert BitView(data).to_bytes() == data
