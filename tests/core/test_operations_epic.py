"""Tests for the EPIC operation modules and realization."""

import pytest

from repro.core.fn import FieldOperation, OperationKey
from repro.core.operations.base import Decision
from repro.core.operations.epic import EpicHopOperation, EpicVerifyOperation
from repro.core.processor import RouterProcessor
from repro.core.state import NodeState
from repro.crypto.keys import RouterKey
from repro.errors import OperationError, OperationStateError
from repro.protocols.opt import negotiate_session
from repro.protocols.epic.header import EpicHeader
from repro.realize.epic import build_epic_packet, build_routed_epic_packet, epic_fns
from tests.core.conftest import make_context

PAYLOAD = b"epic op payload"


@pytest.fixture
def session():
    return negotiate_session(
        "s", "d", [RouterKey("epic-r0")], RouterKey("d"), nonce=b"op"
    )


def hop_fn(hops=1, base=0):
    return epic_fns(hops, base_offset_bits=base)[0]


def verify_fn(hops=1, base=0):
    return epic_fns(hops, base_offset_bits=base)[1]


def router_state(session, node_id="epic-r0", position=0):
    state = NodeState(node_id=node_id)
    state.opt_positions[session.session_id] = position
    return state


class TestEpicHopOperation:
    def test_valid_hvf_verifies_and_spends(self, session):
        packet = build_epic_packet(session, PAYLOAD, counter=5)
        state = router_state(session)
        ctx = make_context(state, packet.header.locations, payload=PAYLOAD)
        result = EpicHopOperation().execute(ctx, hop_fn())
        assert result.decision is Decision.CONTINUE
        # the HVF was overwritten (spent)
        assert ctx.locations.to_bytes() != packet.header.locations

    def test_forged_hvf_dropped(self, session):
        packet = build_epic_packet(session, PAYLOAD, counter=5)
        state = router_state(session, node_id="not-on-path")
        ctx = make_context(state, packet.header.locations, payload=PAYLOAD)
        result = EpicHopOperation().execute(ctx, hop_fn())
        assert result.decision is Decision.DROP

    def test_missing_slot_dropped(self, session):
        packet = build_epic_packet(session, PAYLOAD)
        state = router_state(session, position=5)
        ctx = make_context(state, packet.header.locations)
        result = EpicHopOperation().execute(ctx, hop_fn())
        assert result.decision is Decision.DROP

    def test_bad_field_size_rejected(self, session):
        state = router_state(session)
        ctx = make_context(state, bytes(44))
        with pytest.raises(OperationError):
            EpicHopOperation().execute(
                ctx, FieldOperation(0, 100, OperationKey.EPIC)
            )


class TestEpicVerifyOperation:
    def test_host_accepts_valid(self, session):
        packet = build_epic_packet(session, PAYLOAD, counter=1)
        host = NodeState(node_id="d")
        host.opt_sessions[session.session_id] = session
        ctx = make_context(
            host, packet.header.locations, payload=PAYLOAD, at_host=True
        )
        result = EpicVerifyOperation().execute(ctx, verify_fn())
        assert result.decision is Decision.DELIVER
        assert ctx.scratch["epic_ok"]

    def test_host_rejects_swapped_payload(self, session):
        packet = build_epic_packet(session, PAYLOAD, counter=1)
        host = NodeState(node_id="d")
        host.opt_sessions[session.session_id] = session
        ctx = make_context(
            host, packet.header.locations, payload=b"junk", at_host=True
        )
        result = EpicVerifyOperation().execute(ctx, verify_fn())
        assert result.decision is Decision.DROP

    def test_router_skips(self, session):
        packet = build_epic_packet(session, PAYLOAD)
        ctx = make_context(
            router_state(session), packet.header.locations, at_host=False
        )
        result = EpicVerifyOperation().execute(ctx, verify_fn())
        assert result.decision is Decision.CONTINUE

    def test_unknown_session_raises(self, session):
        packet = build_epic_packet(session, PAYLOAD)
        ctx = make_context(
            NodeState(node_id="d"), packet.header.locations,
            payload=PAYLOAD, at_host=True,
        )
        with pytest.raises(OperationStateError):
            EpicVerifyOperation().execute(ctx, verify_fn())


class TestEpicRealization:
    def test_bare_header_size(self, session):
        assert build_epic_packet(session, PAYLOAD).header.header_length == 62

    def test_routed_header_size(self, session):
        packet = build_routed_epic_packet(session, 1, 2, PAYLOAD)
        assert packet.header.header_length == 82  # < OPT's 98: short MACs

    def test_routed_end_to_end(self, session):
        state = router_state(session)
        state.fib_v4.insert(0x0A000000, 8, 3)
        packet = build_routed_epic_packet(
            session, 0x0A000001, 2, PAYLOAD, counter=7
        )
        result = RouterProcessor(state).process(packet)
        assert result.decision is Decision.FORWARD and result.ports == (3,)
        from repro.core.host import HostStack

        host = HostStack()
        host.state.opt_sessions[session.session_id] = session
        assert host.receive(result.packet).accepted

    def test_replay_through_hop_blocked(self, session):
        """After one traversal the spent HVF fails re-verification."""
        state = router_state(session)
        state.default_port = 1
        packet = build_epic_packet(session, PAYLOAD, counter=9)
        processor = RouterProcessor(state)
        first = processor.process(packet)
        assert first.decision is Decision.FORWARD
        replay = processor.process(first.packet)
        assert replay.decision is Decision.DROP

    def test_extract_epic_header(self, session):
        packet = build_routed_epic_packet(
            session, 1, 2, PAYLOAD, timestamp=4, counter=8
        )
        header = EpicHeader.decode(packet.header.locations[8:])
        assert header.timestamp == 4 and header.counter == 8
