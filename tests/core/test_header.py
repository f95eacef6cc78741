"""Tests for the DIP header codec (Figure 1 layout)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.fn import FieldOperation
from repro.core.header import (
    BASIC_HEADER_SIZE,
    MAX_LOC_LEN,
    DipHeader,
    PacketParameter,
)
from repro.errors import (
    FieldRangeError,
    HeaderValueError,
    TruncatedHeaderError,
)

fn_strategy = st.builds(
    FieldOperation,
    field_loc=st.integers(min_value=0, max_value=500),
    field_len=st.integers(min_value=0, max_value=500),
    key=st.integers(min_value=1, max_value=13),
    tag=st.booleans(),
)


class TestPacketParameter:
    def test_roundtrip(self):
        param = PacketParameter(parallel=True, loc_len=1000, reserved=5)
        assert PacketParameter.decode(param.encode()) == param

    def test_bit_layout(self):
        """Lowest bit = parallel flag, next ten = locations length."""
        assert PacketParameter(parallel=True).encode() & 1 == 1
        assert (PacketParameter(loc_len=1).encode() >> 1) & 0x3FF == 1

    def test_loc_len_range(self):
        PacketParameter(loc_len=MAX_LOC_LEN)
        with pytest.raises(HeaderValueError):
            PacketParameter(loc_len=MAX_LOC_LEN + 1)

    def test_reserved_range(self):
        with pytest.raises(HeaderValueError):
            PacketParameter(reserved=32)

    @given(
        parallel=st.booleans(),
        loc_len=st.integers(min_value=0, max_value=MAX_LOC_LEN),
        reserved=st.integers(min_value=0, max_value=31),
    )
    def test_property_roundtrip(self, parallel, loc_len, reserved):
        param = PacketParameter(parallel, loc_len, reserved)
        assert PacketParameter.decode(param.encode()) == param


class TestDipHeader:
    def test_basic_header_is_6_bytes(self):
        assert DipHeader().header_length == BASIC_HEADER_SIZE == 6
        assert len(DipHeader().encode()) == 6

    def test_header_length_formula(self):
        """6 + 6*FN_Num + LocLen (Section 2.2 derivability)."""
        header = DipHeader(
            fns=(FieldOperation(0, 32, 1), FieldOperation(32, 32, 3)),
            locations=bytes(8),
        )
        assert header.header_length == 6 + 12 + 8
        assert len(header.encode()) == header.header_length

    def test_roundtrip(self):
        header = DipHeader(
            fns=(FieldOperation(0, 32, 4), FieldOperation(0, 544, 9, tag=True)),
            locations=bytes(range(70)),
            next_header=0x86DD,
            hop_limit=17,
            parallel=True,
            reserved=3,
        )
        decoded, consumed = DipHeader.decode(header.encode())
        assert decoded == header
        assert consumed == header.header_length

    def test_decode_with_payload_after(self):
        header = DipHeader(fns=(FieldOperation(0, 8, 1),), locations=b"\xff")
        raw = header.encode() + b"PAYLOAD"
        decoded, consumed = DipHeader.decode(raw)
        assert decoded == header
        assert raw[consumed:] == b"PAYLOAD"

    def test_truncations(self):
        header = DipHeader(
            fns=(FieldOperation(0, 32, 1),), locations=bytes(4)
        )
        raw = header.encode()
        with pytest.raises(TruncatedHeaderError):
            DipHeader.decode(raw[:3])  # inside basic header
        with pytest.raises(TruncatedHeaderError):
            DipHeader.decode(raw[:8])  # inside FN definitions
        with pytest.raises(TruncatedHeaderError):
            DipHeader.decode(raw[:-1])  # inside locations

    def test_limits(self):
        with pytest.raises(HeaderValueError):
            DipHeader(locations=bytes(MAX_LOC_LEN + 1))
        with pytest.raises(HeaderValueError):
            DipHeader(hop_limit=256)
        with pytest.raises(HeaderValueError):
            DipHeader(next_header=1 << 16)
        with pytest.raises(HeaderValueError):
            DipHeader(fns=tuple(FieldOperation(0, 0, 1) for _ in range(256)))

    def test_field_range_validation(self):
        header = DipHeader(
            fns=(FieldOperation(0, 64, 1),), locations=bytes(4)
        )
        with pytest.raises(FieldRangeError):
            header.validate_field_ranges()
        DipHeader(
            fns=(FieldOperation(0, 32, 1),), locations=bytes(4)
        ).validate_field_ranges()

    def test_router_host_split(self):
        router_fn = FieldOperation(0, 32, 4)
        host_fn = FieldOperation(0, 32, 9, tag=True)
        header = DipHeader(fns=(router_fn, host_fn), locations=bytes(4))
        assert header.router_fns() == (router_fn,)

    def test_with_hop_limit(self):
        assert DipHeader(hop_limit=5).with_hop_limit(4).hop_limit == 4

    def test_locations_view_is_a_copy(self):
        header = DipHeader(locations=bytes(4))
        view = header.locations_view()
        view.set_uint(0, 8, 0xFF)
        assert header.locations == bytes(4)

    @given(
        fns=st.lists(fn_strategy, max_size=6),
        locations=st.binary(max_size=200),
        hop_limit=st.integers(min_value=0, max_value=255),
        parallel=st.booleans(),
    )
    def test_property_roundtrip(self, fns, locations, hop_limit, parallel):
        header = DipHeader(
            fns=tuple(fns),
            locations=locations,
            hop_limit=hop_limit,
            parallel=parallel,
        )
        decoded, consumed = DipHeader.decode(header.encode())
        assert decoded == header
        assert consumed == header.header_length
