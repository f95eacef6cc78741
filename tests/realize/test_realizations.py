"""Tests for the Section 3 protocol realizations (FN triples + sizes).

The header-size assertions here ARE Table 2 of the paper, byte-exact.
"""

import pytest

from repro.core.fn import OperationKey
from repro.core.packet import DipPacket
from repro.crypto.keys import RouterKey
from repro.errors import HeaderValueError
from repro.protocols.ip.ipv4 import IPV4_HEADER_SIZE
from repro.protocols.ip.ipv6 import IPV6_HEADER_SIZE
from repro.protocols.opt import negotiate_session
from repro.protocols.opt.header import OptHeader
from repro.protocols.xia.dag import DagAddress
from repro.protocols.xia.router import XiaHeader
from repro.protocols.xia.xid import Xid, XidType
from repro.realize.derived import build_ndn_opt_data, build_ndn_opt_interest
from repro.realize.extensions import with_passport, with_telemetry
from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
from repro.realize.ndn import (
    build_data_packet,
    build_interest_packet,
    name_digest,
)
from repro.realize.opt import build_opt_packet, build_routed_opt_packet, opt_fns
from repro.realize.xia import build_xia_packet


@pytest.fixture
def session():
    return negotiate_session(
        "s", "d", [RouterKey("r0")], RouterKey("d"), nonce=b"rl"
    )


class TestTable2HeaderSizes:
    """Byte-exact reproduction of Table 2."""

    def test_ipv6_native_40(self):
        assert IPV6_HEADER_SIZE == 40

    def test_ipv4_native_20(self):
        assert IPV4_HEADER_SIZE == 20

    def test_dip_128_forwarding_50(self):
        assert build_ipv6_packet(1, 2).header.header_length == 50

    def test_dip_32_forwarding_26(self):
        assert build_ipv4_packet(1, 2).header.header_length == 26

    def test_ndn_forwarding_16(self):
        assert build_interest_packet("/a").header.header_length == 16
        assert build_data_packet("/a").header.header_length == 16

    def test_opt_forwarding_98(self, session):
        assert build_opt_packet(session, b"p").header.header_length == 98

    def test_ndn_opt_forwarding_108(self, session):
        assert (
            build_ndn_opt_interest("/a", session, b"p").header.header_length
            == 108
        )
        assert (
            build_ndn_opt_data("/a", session, b"p").header.header_length
            == 108
        )


class TestIpRealization:
    def test_triples(self):
        header = build_ipv4_packet(0xAABBCCDD, 0x11223344).header
        assert [
            (fn.field_loc, fn.field_len, fn.key) for fn in header.fns
        ] == [(0, 32, 1), (32, 32, 3)]
        header6 = build_ipv6_packet(1, 2).header
        assert [
            (fn.field_loc, fn.field_len, fn.key) for fn in header6.fns
        ] == [(0, 128, 2), (128, 128, 3)]

    def test_addresses_in_locations(self):
        header = build_ipv4_packet(0xAABBCCDD, 0x11223344).header
        assert header.locations == b"\xaa\xbb\xcc\xdd\x11\x22\x33\x44"

    def test_address_range_checked(self):
        with pytest.raises(HeaderValueError):
            build_ipv4_packet(1 << 32, 0)
        with pytest.raises(HeaderValueError):
            build_ipv6_packet(1 << 128, 0)

    def test_roundtrip(self):
        packet = build_ipv6_packet(5, 6, payload=b"xyz")
        assert DipPacket.decode(packet.encode()) == packet


class TestNdnRealization:
    def test_interest_carries_fib_data_carries_pit(self):
        assert build_interest_packet("/a").header.fns[0].key == OperationKey.FIB
        assert build_data_packet("/a").header.fns[0].key == OperationKey.PIT

    def test_digest_in_locations(self):
        packet = build_interest_packet("/a/b")
        assert packet.header.locations == name_digest("/a/b").to_bytes(4, "big")

    def test_digest_accepts_int_str_name(self):
        from repro.protocols.ndn.names import Name

        assert name_digest(0x1234) == 0x1234
        assert name_digest("/a") == Name.parse("/a").digest32()
        assert name_digest(Name.parse("/a")) == name_digest("/a")
        with pytest.raises(ValueError):
            name_digest(1 << 32)

    def test_data_content_is_payload(self):
        packet = build_data_packet("/a", content=b"cc")
        assert packet.payload == b"cc"


class TestOptRealization:
    def test_paper_triples_one_hop(self, session):
        header = build_opt_packet(session, b"p").header
        triples = [
            (fn.field_loc, fn.field_len, fn.key, fn.tag) for fn in header.fns
        ]
        assert triples == [
            (128, 128, 6, False),
            (0, 416, 7, False),
            (288, 128, 8, False),
            (0, 544, 9, True),
        ]

    def test_multi_hop_scaling(self):
        routers = [RouterKey(f"r{i}") for i in range(4)]
        session = negotiate_session("s", "d", routers, RouterKey("d"))
        packet = build_opt_packet(session, b"p")
        # locations grow by 16 bytes per extra hop
        assert packet.header.loc_len == 68 + 16 * 3
        verify = packet.header.fns[-1]
        assert verify.field_len == 416 + 128 * 4

    def test_extract_opt_header(self, session):
        packet = build_opt_packet(session, b"p", timestamp=3)
        opt = OptHeader.decode(packet.header.locations)
        assert opt.session_id == session.session_id
        assert opt.timestamp == 3

    def test_offset_fns(self):
        fns = opt_fns(hop_count=1, base_offset_bits=32)
        assert fns[0].field_loc == 160
        assert fns[1].field_loc == 32
        assert fns[2].field_loc == 320
        assert fns[3].field_loc == 32 and fns[3].field_len == 544

    def test_routed_opt_composition(self, session):
        packet = build_routed_opt_packet(
            session, dst=0x0A000001, src=0x0B000002, payload=b"p"
        )
        keys = [fn.key for fn in packet.header.fns]
        assert keys == [1, 3, 6, 7, 8, 9]
        assert packet.header.loc_len == 8 + 68


class TestDerivedRealization:
    def test_fn_composition(self, session):
        interest = build_ndn_opt_interest("/a", session, b"p").header
        assert [fn.key for fn in interest.fns] == [4, 6, 7, 8, 9]
        data = build_ndn_opt_data("/a", session, b"p").header
        assert [fn.key for fn in data.fns] == [5, 6, 7, 8, 9]

    def test_name_precedes_opt_header(self, session):
        packet = build_ndn_opt_interest("/a/b", session, b"p")
        assert packet.header.locations[:4] == name_digest("/a/b").to_bytes(
            4, "big"
        )
        opt = OptHeader.decode(packet.header.locations[4:])
        assert opt.session_id == session.session_id


class TestXiaRealization:
    def test_fns_cover_whole_header(self):
        dag = DagAddress.direct(Xid.for_content(b"c"))
        packet = build_xia_packet(dag)
        bits = packet.header.loc_len * 8
        assert [
            (fn.field_loc, fn.field_len, fn.key) for fn in packet.header.fns
        ] == [(0, bits, 10), (0, bits, 11)]

    def test_extract_xia_header(self):
        dag = DagAddress.with_fallback(
            Xid.for_content(b"c"), [Xid.from_name(XidType.AD, "a")]
        )
        packet = build_xia_packet(dag, xia_hop_limit=9)
        header = XiaHeader.decode(packet.header.locations)
        assert header.dag == dag
        assert header.hop_limit == 9 and header.last_visited == -1


class TestExtensions:
    def test_with_telemetry_appends(self):
        base = build_interest_packet("/a").header
        extended = with_telemetry(base)
        assert extended.fns[-1].key == OperationKey.TELEMETRY
        assert extended.loc_len == base.loc_len + 4
        assert extended.fns[-1].field_loc == base.loc_len * 8

    def test_with_passport_prepends(self):
        base = build_interest_packet("/a").header
        label, key = b"\x01" * 16, b"\x02" * 16
        extended = with_passport(base, label, key, payload=b"pp")
        assert extended.fns[0].key == OperationKey.PASS
        assert extended.loc_len == base.loc_len + 32
        extended.validate_field_ranges()

    def test_with_passport_label_size(self):
        base = build_interest_packet("/a").header
        with pytest.raises(ValueError):
            with_passport(base, b"short", b"\x02" * 16, b"")
