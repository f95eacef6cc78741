"""Tests for full DIP packets."""

from hypothesis import given, strategies as st

from repro.core.fn import FieldOperation
from repro.core.header import DipHeader
from repro.core.packet import DipPacket


def make_packet(payload=b"data"):
    header = DipHeader(
        fns=(FieldOperation(0, 32, 1),), locations=bytes(4)
    )
    return DipPacket(header=header, payload=payload)


class TestDipPacket:
    def test_size(self):
        packet = make_packet(b"1234")
        assert packet.size == packet.header.header_length + 4

    def test_roundtrip(self):
        packet = make_packet(b"hello world")
        assert DipPacket.decode(packet.encode()) == packet

    def test_empty_payload(self):
        packet = make_packet(b"")
        assert DipPacket.decode(packet.encode()) == packet

    @given(st.binary(max_size=512))
    def test_property_roundtrip(self, payload):
        packet = make_packet(payload)
        assert DipPacket.decode(packet.encode()) == packet
