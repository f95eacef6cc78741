"""Tests for full-name NDN mode (variable-length target fields)."""

import pytest

from repro.core.operations.base import Decision
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.errors import OperationError
from repro.protocols.ndn.cs import ContentStore
from repro.protocols.ndn.names import Name
from tests.core.conftest import make_context


def _fullname_packet(name, key, payload=b""):
    """An NDN packet carrying the full hierarchical name (no digest)."""
    encoded = (Name.parse(name) if isinstance(name, str) else name).encode()
    fn = FieldOperation(field_loc=0, field_len=len(encoded) * 8, key=key)
    return DipPacket(DipHeader(fns=(fn,), locations=encoded), payload)


def build_interest_packet_fullname(name):
    return _fullname_packet(name, OperationKey.FIB)


def build_data_packet_fullname(name, content=b""):
    return _fullname_packet(name, OperationKey.PIT, content)


@pytest.fixture
def ndn_state(state):
    state.name_fib.insert(Name.parse("/seu"), 7)
    return state


class TestFullNameFib:
    def test_component_lpm_forward(self, ndn_state):
        packet = build_interest_packet_fullname("/seu/hotnets/paper")
        result = RouterProcessor(ndn_state).process(packet, ingress_port=2)
        assert result.decision is Decision.FORWARD and result.ports == (7,)

    def test_no_route_drops(self, ndn_state):
        packet = build_interest_packet_fullname("/other/thing")
        result = RouterProcessor(ndn_state).process(packet)
        assert result.decision is Decision.DROP

    def test_pit_recorded_under_full_name(self, ndn_state):
        name = Name.parse("/seu/doc")
        packet = build_interest_packet_fullname(name)
        RouterProcessor(ndn_state).process(packet, ingress_port=3)
        assert ndn_state.pit.peek(name).in_ports == {3}

    def test_aggregation_and_retransmission(self, ndn_state):
        name = "/seu/doc"
        processor = RouterProcessor(ndn_state)
        first = processor.process(
            build_interest_packet_fullname(name), ingress_port=1
        )
        assert first.decision is Decision.FORWARD
        aggregated = processor.process(
            build_interest_packet_fullname(name), ingress_port=2
        )
        assert aggregated.decision is Decision.DROP
        retransmitted = processor.process(
            build_interest_packet_fullname(name), ingress_port=1
        )
        assert retransmitted.decision is Decision.FORWARD

    def test_malformed_name_rejected(self, ndn_state):
        ctx = make_context(ndn_state, b"\x00\xff\xff")  # bogus length
        from repro.core.operations.fib import FibOperation

        with pytest.raises(OperationError):
            FibOperation().execute(
                ctx, FieldOperation(0, 24, OperationKey.FIB)
            )

    def test_unaligned_field_rejected(self, ndn_state):
        ctx = make_context(ndn_state, bytes(4))
        from repro.core.operations.fib import FibOperation

        with pytest.raises(OperationError):
            FibOperation().execute(
                ctx, FieldOperation(0, 20, OperationKey.FIB)
            )


class TestFullNamePit:
    def test_data_retraces_full_name_pit(self, ndn_state):
        name = "/seu/doc"
        processor = RouterProcessor(ndn_state)
        processor.process(build_interest_packet_fullname(name), ingress_port=4)
        result = processor.process(
            build_data_packet_fullname(name, b"content"), ingress_port=7
        )
        assert result.decision is Decision.FORWARD and result.ports == (4,)

    def test_pit_miss_drops(self, ndn_state):
        result = RouterProcessor(ndn_state).process(
            build_data_packet_fullname("/seu/doc", b"c")
        )
        assert result.decision is Decision.DROP

    def test_digest_and_fullname_pits_do_not_collide(self, ndn_state):
        """The same content requested in both modes keys separately."""
        from repro.realize.ndn import build_interest_packet

        processor = RouterProcessor(ndn_state)
        ndn_state.name_fib_digest.insert(
            Name.parse("/seu/doc").digest32(), 32, 7
        )
        processor.process(build_interest_packet("/seu/doc"), ingress_port=1)
        result = processor.process(
            build_data_packet_fullname("/seu/doc", b"c"), ingress_port=7
        )
        assert result.decision is Decision.DROP  # full-name PIT is empty

    def test_caching_in_fullname_mode(self, ndn_state):
        ndn_state.content_store = ContentStore(capacity=4)
        processor = RouterProcessor(ndn_state)
        name = "/seu/cached"
        processor.process(build_interest_packet_fullname(name), ingress_port=1)
        processor.process(
            build_data_packet_fullname(name, b"bytes"), ingress_port=7
        )
        hit = processor.process(
            build_interest_packet_fullname(name), ingress_port=2
        )
        assert hit.decision is Decision.FORWARD and hit.ports == (2,)
        assert hit.scratch["cache_data"].content == b"bytes"

    def test_header_size_reflects_name_length(self):
        short = build_interest_packet_fullname("/a")
        long = build_interest_packet_fullname("/a/much/longer/name/here")
        assert long.header.header_length > short.header.header_length
        # digest mode stays fixed at 16 B regardless
        from repro.realize.ndn import build_interest_packet

        assert build_interest_packet("/a/much/longer/name/here").header.header_length == 16
