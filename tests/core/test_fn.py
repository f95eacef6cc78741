"""Tests for the FN primitive (triple encoding, tag bit, overlap)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fn import FN_ENCODED_SIZE, FieldOperation
from repro.errors import HeaderValueError, TruncatedHeaderError


class TestFieldOperation:
    def test_encode_size(self):
        fn = FieldOperation(field_loc=0, field_len=32, key=1)
        assert len(fn.encode()) == FN_ENCODED_SIZE == 6

    def test_roundtrip(self):
        fn = FieldOperation(field_loc=288, field_len=128, key=8, tag=False)
        assert FieldOperation.decode(fn.encode()) == fn

    def test_tag_bit_is_msb_of_key_field(self):
        fn = FieldOperation(field_loc=0, field_len=544, key=9, tag=True)
        encoded = fn.encode()
        assert encoded[4] & 0x80
        decoded = FieldOperation.decode(encoded)
        assert decoded.tag and decoded.key == 9

    def test_paper_triples_encode(self):
        """The exact triples of Section 3 must be expressible."""
        for loc, length, key in [
            (0, 128, 2), (128, 128, 3), (0, 32, 1), (32, 32, 3),
            (0, 32, 4), (0, 32, 5), (128, 128, 6), (0, 416, 7),
            (288, 128, 8), (0, 544, 9),
        ]:
            fn = FieldOperation(field_loc=loc, field_len=length, key=key)
            assert FieldOperation.decode(fn.encode()) == fn

    def test_field_end(self):
        assert FieldOperation(field_loc=32, field_len=32, key=1).field_end == 64

    def test_range_validation(self):
        with pytest.raises(HeaderValueError):
            FieldOperation(field_loc=1 << 16, field_len=0, key=1)
        with pytest.raises(HeaderValueError):
            FieldOperation(field_loc=0, field_len=1 << 16, key=1)
        with pytest.raises(HeaderValueError):
            FieldOperation(field_loc=0, field_len=0, key=1 << 15)
        with pytest.raises(HeaderValueError):
            FieldOperation(field_loc=-1, field_len=0, key=1)

    def test_truncated_decode(self):
        with pytest.raises(TruncatedHeaderError):
            FieldOperation.decode(b"\x00\x00\x00")

    def test_str_mentions_key_and_role(self):
        text = str(FieldOperation(0, 544, 9, tag=True))
        assert "VERIFY" in text and "host" in text
        assert "key99" in str(FieldOperation(0, 8, 99))


class TestOverlap:
    def test_overlapping(self):
        a = FieldOperation(0, 64, 1)
        b = FieldOperation(32, 64, 2)
        assert a.overlaps(b) and b.overlaps(a)

    def test_adjacent_do_not_overlap(self):
        a = FieldOperation(0, 32, 1)
        b = FieldOperation(32, 32, 2)
        assert not a.overlaps(b) and not b.overlaps(a)

    def test_containment_overlaps(self):
        outer = FieldOperation(0, 416, 7)
        inner = FieldOperation(288, 128, 8)
        assert outer.overlaps(inner)

    def test_zero_length_never_overlaps(self):
        point = FieldOperation(10, 0, 1)
        other = FieldOperation(0, 32, 2)
        assert not point.overlaps(other)


@given(
    loc=st.integers(min_value=0, max_value=(1 << 16) - 1),
    length=st.integers(min_value=0, max_value=(1 << 16) - 1),
    key=st.integers(min_value=0, max_value=(1 << 15) - 1),
    tag=st.booleans(),
)
def test_property_roundtrip(loc, length, key, tag):
    fn = FieldOperation(field_loc=loc, field_len=length, key=key, tag=tag)
    assert FieldOperation.decode(fn.encode()) == fn
