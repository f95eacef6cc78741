"""Tests for the compiled plan's layout and the cycle cost model."""

import pytest

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.state import NodeState
from repro.crypto.keys import RouterKey
from repro.dataplane.costs import CycleCostModel
from repro.dataplane.dip_pipeline import DipPipeline
from repro.errors import PipelineConstraintError
from repro.protocols.opt import negotiate_session
from repro.realize.derived import build_ndn_opt_interest
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_interest_packet
from repro.realize.opt import build_opt_packet


@pytest.fixture
def session():
    return negotiate_session(
        "s", "d", [RouterKey("r")], RouterKey("d"), nonce=b"dc"
    )


class TestCompiler:
    """``DipPipeline``'s plan: one stage per router FN, and passes."""

    def test_ip_program_layout(self):
        state = NodeState()
        state.fib_v4.insert(0x0A000000, 8, 2)
        result = DipPipeline(state).process(build_ipv4_packet(0x0A000001, 7))
        assert result.stages_executed == 2
        assert result.passes == 1
        assert result.notes == ["stage 0: F_32_match", "stage 1: F_source"]

    def test_host_fns_not_compiled(self, session):
        state = NodeState(node_id="r")
        state.opt_positions[session.session_id] = 0
        state.default_port = 9
        result = DipPipeline(state).process(
            build_opt_packet(session, b"p"), ingress_port=1
        )
        assert result.stages_executed == 3  # parm, mac, mark
        assert result.notes == [
            "stage 0: F_parm",
            "stage 1: F_MAC",
            "stage 2: F_mark",
            "stage 3: host FN skipped",
        ]
        assert build_opt_packet(session, b"p").header.fns[3].key == (
            OperationKey.VERIFY
        )

    def test_stage_budget(self):
        fns = tuple(FieldOperation(0, 8, 13) for _ in range(13))
        packet = DipPacket(header=DipHeader(fns=fns, locations=b"\x00"))
        with pytest.raises(PipelineConstraintError):
            DipPipeline(NodeState()).process(packet)

    def test_aes_requires_recirculation(self, session):
        """AES "needs to resubmit the packet": a second pass."""
        packet = build_ndn_opt_interest("/a", session, b"p")
        state = NodeState(mac_backend="aes")
        assert DipPipeline(state).process(packet).passes == 2

    def test_2em_single_pass(self, session):
        """The paper's 2EM choice: no resubmission needed."""
        packet = build_ndn_opt_interest("/a", session, b"p")
        assert DipPipeline(NodeState()).process(packet).passes == 1


class TestCycleCostModel:
    def test_parse_scales_with_header(self):
        model = CycleCostModel()
        small = model.parse_cycles(16, 128)
        large = model.parse_cycles(108, 128)
        assert large > small

    def test_wire_cost_scales_with_packet(self):
        model = CycleCostModel()
        assert model.parse_cycles(16, 1500) > model.parse_cycles(16, 128)

    def test_mac_dominates_matches(self):
        model = CycleCostModel()
        mac = model.fn_cycles(FieldOperation(0, 416, OperationKey.MAC))
        match = model.fn_cycles(FieldOperation(0, 32, OperationKey.MATCH_32))
        assert mac > 5 * match

    def test_mac_scales_with_field_length(self):
        model = CycleCostModel()
        short = model.fn_cycles(FieldOperation(0, 128, OperationKey.MAC))
        long = model.fn_cycles(FieldOperation(0, 416, OperationKey.MAC))
        assert long > short

    def test_aes_backend_costs_more(self):
        fn = FieldOperation(0, 416, OperationKey.MAC)
        em = CycleCostModel(mac_backend="2em").fn_cycles(fn)
        aes = CycleCostModel(mac_backend="aes").fn_cycles(fn)
        assert aes > em
        mark = FieldOperation(288, 128, OperationKey.MARK)
        assert (
            CycleCostModel(mac_backend="aes").fn_cycles(mark)
            > CycleCostModel(mac_backend="2em").fn_cycles(mark)
        )

    def test_unknown_key_default_cost(self):
        model = CycleCostModel()
        assert model.fn_cycles(FieldOperation(0, 8, 99)) == model.default_key_cost

    def test_figure2_ordering(self, session):
        """Per-packet totals order as the paper's Figure 2 does."""
        model = CycleCostModel()

        def total(packet):
            cycles = model.parse_cycles(
                packet.header.header_length, packet.size
            )
            return cycles + sum(
                model.fn_cycles(fn)
                for fn in packet.header.fns
                if not fn.tag
            )

        ip = total(build_ipv4_packet(1, 2))
        ndn = total(build_interest_packet("/a"))
        opt = total(build_opt_packet(session, b"p"))
        ndn_opt = total(build_ndn_opt_interest("/a", session, b"p"))
        assert ip < ndn < opt < ndn_opt
