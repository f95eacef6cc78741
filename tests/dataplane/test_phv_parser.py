"""Tests for the PHV and the unrolled DIP parse graph."""

import pytest

from repro.core.fn import FieldOperation
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.dataplane.parser import Parser
from repro.dataplane.phv import PacketHeaderVector
from repro.errors import DataplaneError
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_interest_packet


def has(phv, name):
    try:
        phv.get(name)
    except DataplaneError:
        return False
    return True


class TestPhv:
    def test_double_allocation_rejected(self):
        phv = PacketHeaderVector()
        phv.allocate("f", 4, 0)
        with pytest.raises(DataplaneError):
            phv.allocate("f", 4, 0)

    def test_budget_enforced(self):
        phv = PacketHeaderVector(bit_budget=16)
        phv.allocate("a", 12, 0)
        with pytest.raises(DataplaneError):
            phv.allocate("b", 8, 0)
        phv.allocate("c", 4, 0)  # the refused field took no bits

    def test_missing_field_errors(self):
        phv = PacketHeaderVector()
        with pytest.raises(DataplaneError):
            phv.get("missing")


class TestParser:
    def test_truncated_packet_not_accepted(self):
        wire = build_ipv4_packet(0x0A000001, 7).encode()
        assert Parser(max_fns=4).parse(wire[:5]) is None  # inside the basic header
        assert Parser(max_fns=4).parse(wire[:8]) is None  # inside a triple


class TestDipParseGraph:
    def test_parses_real_ipv4_packet(self):
        packet = build_ipv4_packet(0x0A000001, 0x0B000002)
        phv = Parser(max_fns=4).parse(packet.encode())
        assert phv.get("fn_num") == 2
        assert phv.get("hop_limit") == 64
        assert phv.get("fn_key") == 1
        assert phv.get("fn_key[1]") == 3
        # exactly the basic header + 2 triples: no third state fired
        assert not has(phv, "fn_key[2]")

    def test_parses_single_fn_packet(self):
        packet = build_interest_packet("/a")
        phv = Parser(max_fns=4).parse(packet.encode())
        assert phv.get("fn_num") == 1
        assert phv.get("fn_key") == 4
        assert not has(phv, "fn_key[1]")

    def test_zero_fn_packet(self):
        phv = Parser(max_fns=4).parse(DipPacket(header=DipHeader()).encode())
        assert phv.get("fn_num") == 0
        assert not has(phv, "fn_key")

    def test_unroll_limit_truncates(self):
        """More FNs than the unrolled budget -> parse stops at budget."""
        fns = tuple(FieldOperation(0, 8, 13) for _ in range(6))
        packet = DipPacket(header=DipHeader(fns=fns, locations=b"\x00"))
        phv = Parser(max_fns=2).parse(packet.encode())
        # hardware without enough stages parses only what it can
        assert phv.get("fn_num") == 6
        assert has(phv, "fn_key[1]")
        assert not has(phv, "fn_key[2]")
