"""Tests for the NetFence and DPS realizations (FN compositions)."""

import pytest

from repro.core.fn import OperationKey
from repro.core.packet import DipPacket
from repro.protocols.netfence.tags import CongestionLevel, CongestionTag
from repro.protocols.dps.csfq import decode_rate_label
from repro.realize.dps import build_dps_packet, dps_fns
from repro.realize.netfence import (
    build_netfence_packet,
    extract_congestion_tag,
    netfence_fns,
)


class TestNetfenceRealization:
    def test_fn_composition_order(self):
        """Policing must run before forwarding; marking after."""
        keys = [fn.key for fn in netfence_fns()]
        assert keys == [
            OperationKey.POLICE,
            OperationKey.MATCH_32,
            OperationKey.SOURCE,
            OperationKey.CONG_MARK,
        ]

    def test_header_size_70_bytes(self):
        packet = build_netfence_packet(1, 2, sender_id=3)
        assert packet.header.header_length == 70
        assert packet.header.loc_len == 40

    def test_roundtrip(self):
        packet = build_netfence_packet(1, 2, sender_id=3, payload=b"pp")
        assert DipPacket.decode(packet.encode()) == packet

    def test_tag_extraction(self):
        tag = CongestionTag(sender_id=3, level=CongestionLevel.NORMAL)
        packet = build_netfence_packet(1, 2, sender_id=3, echoed_tag=tag)
        assert extract_congestion_tag(packet.header) == tag

    def test_fresh_tag_has_no_feedback(self):
        packet = build_netfence_packet(1, 2, sender_id=3)
        tag = extract_congestion_tag(packet.header)
        assert tag.level is CongestionLevel.NO_FEEDBACK
        assert tag.sender_id == 3

    def test_echoed_tag_sender_must_match(self):
        tag = CongestionTag(sender_id=99)
        with pytest.raises(ValueError):
            build_netfence_packet(1, 2, sender_id=3, echoed_tag=tag)

    def test_field_ranges_valid(self):
        build_netfence_packet(1, 2, sender_id=3).header.validate_field_ranges()


class TestDpsRealization:
    def test_fn_composition(self):
        keys = [fn.key for fn in dps_fns()]
        assert keys == [
            OperationKey.MATCH_32,
            OperationKey.SOURCE,
            OperationKey.DPS,
        ]

    def test_header_size_36_bytes(self):
        assert build_dps_packet(1, 2, 1000.0).header.header_length == 36

    def test_label_roundtrip(self):
        packet = build_dps_packet(1, 2, rate_bps=48_000.0)
        label = int.from_bytes(packet.header.locations[8:12], "big")
        assert decode_rate_label(label) == pytest.approx(
            48_000.0, rel=0.01
        )

    def test_wire_roundtrip(self):
        packet = build_dps_packet(1, 2, 500.0, payload=b"zz")
        assert DipPacket.decode(packet.encode()) == packet

    def test_field_ranges_valid(self):
        build_dps_packet(1, 2, 500.0).header.validate_field_ranges()
