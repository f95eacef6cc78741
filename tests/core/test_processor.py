"""Tests for Algorithm 1 (the router processor)."""

import pytest

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.limits import ProcessingLimits
from repro.core.packet import DipPacket
from repro.core.processor import (
    Decision,
    RouterProcessor,
    fns_conflict,
    parallel_levels,
)
from repro.core.registry import default_registry
from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_interest_packet, name_digest
from repro.realize.opt import build_opt_packet


@pytest.fixture
def ip_state():
    state = NodeState(node_id="r")
    state.fib_v4.insert(0x0A000000, 8, 4)
    return state


class TestAlgorithmOne:
    def test_forwards_and_decrements_hop_limit(self, ip_state):
        packet = build_ipv4_packet(0x0A000001, 0, hop_limit=10)
        result = RouterProcessor(ip_state).process(packet)
        assert result.decision is Decision.FORWARD and result.ports == (4,)
        assert result.packet.header.hop_limit == 9
        assert result.packet.payload == packet.payload

    def test_accepts_raw_bytes(self, ip_state):
        raw = build_ipv4_packet(0x0A000001, 0).encode()
        result = RouterProcessor(ip_state).process(raw)
        assert result.decision is Decision.FORWARD

    def test_hop_limit_zero_drops(self, ip_state):
        packet = build_ipv4_packet(0x0A000001, 0, hop_limit=0)
        result = RouterProcessor(ip_state).process(packet)
        assert result.decision is Decision.DROP
        assert "hop limit" in result.notes[0]

    def test_host_fns_skipped(self, ip_state):
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 1),
                FieldOperation(32, 32, 9, tag=True),  # host op
            ),
            locations=(0x0A000001).to_bytes(4, "big") + bytes(4),
        )
        result = RouterProcessor(ip_state).process(DipPacket(header=header))
        assert result.decision is Decision.FORWARD
        assert any("skipped (host operation)" in note for note in result.notes)

    def test_no_decision_drops(self):
        state = NodeState(node_id="r")
        header = DipHeader(
            fns=(FieldOperation(0, 32, 3),), locations=bytes(4)
        )
        result = RouterProcessor(state).process(DipPacket(header=header))
        assert result.decision is Decision.DROP
        assert "no forwarding decision" in result.notes[-1]

    def test_default_port_static_egress(self):
        state = NodeState(node_id="r")
        state.default_port = 7
        header = DipHeader(
            fns=(FieldOperation(0, 32, 3),), locations=bytes(4)
        )
        result = RouterProcessor(state).process(DipPacket(header=header))
        assert result.decision is Decision.FORWARD and result.ports == (7,)

    def test_field_range_violation_rejected(self):
        state = NodeState(node_id="r")
        header = DipHeader(
            fns=(FieldOperation(0, 64, 1),), locations=bytes(4)
        )
        from repro.errors import FieldRangeError

        with pytest.raises(FieldRangeError):
            RouterProcessor(state).process(DipPacket(header=header))

    def test_operation_error_drops_packet(self):
        state = NodeState(node_id="r")
        # F_32_match over a 16-bit field -> operation error -> drop
        header = DipHeader(
            fns=(FieldOperation(0, 16, 1),), locations=bytes(2)
        )
        result = RouterProcessor(state).process(DipPacket(header=header))
        assert result.decision is Decision.DROP
        assert "operation failed" in result.notes[-1]

    def test_drop_stops_processing(self, ip_state):
        """A dropping FN prevents later FNs from running."""
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 1),   # no route -> drop
                FieldOperation(32, 32, 13),  # telemetry would record
            ),
            locations=(0x7F000001).to_bytes(4, "big") + bytes(4),
        )
        result = RouterProcessor(ip_state).process(DipPacket(header=header))
        assert result.decision is Decision.DROP
        assert not ip_state.telemetry

    def test_later_decision_wins(self, ip_state):
        """Two forwarding FNs: the last one's ports win (order matters)."""
        ip_state.name_fib_digest.insert(name_digest("/x"), 32, 8)
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 1),  # IPv4 -> port 4
                FieldOperation(32, 32, 4),  # FIB -> port 8
            ),
            locations=(
                (0x0A000001).to_bytes(4, "big")
                + name_digest("/x").to_bytes(4, "big")
            ),
        )
        result = RouterProcessor(ip_state).process(DipPacket(header=header))
        assert result.ports == (8,)


class TestUnsupportedFns:
    def test_non_critical_unknown_ignored(self, ip_state):
        registry = default_registry().restricted({1, 3})
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 13),  # telemetry, not installed
                FieldOperation(0, 32, 1),
            ),
            locations=(0x0A000001).to_bytes(4, "big"),
        )
        result = RouterProcessor(ip_state, registry=registry).process(
            DipPacket(header=header)
        )
        assert result.decision is Decision.FORWARD
        assert any("ignored" in note for note in result.notes)

    def test_path_critical_unsupported_signals(self, ip_state):
        registry = default_registry().restricted({1, 3})
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 1),
                FieldOperation(0, 32, OperationKey.MAC),
            ),
            locations=(0x0A000001).to_bytes(4, "big"),
        )
        result = RouterProcessor(ip_state, registry=registry).process(
            DipPacket(header=header)
        )
        assert result.decision is Decision.UNSUPPORTED
        assert result.unsupported_key == OperationKey.MAC

    def test_totally_unknown_key_ignored(self, ip_state):
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, 99),  # not even in the enum
                FieldOperation(0, 32, 1),
            ),
            locations=(0x0A000001).to_bytes(4, "big"),
        )
        result = RouterProcessor(ip_state).process(DipPacket(header=header))
        assert result.decision is Decision.FORWARD


class TestLimits:
    def test_fn_count_limit(self, ip_state):
        ip_state.limits = ProcessingLimits(max_fn_count=1)
        header = DipHeader(
            fns=(FieldOperation(0, 32, 1), FieldOperation(32, 32, 3)),
            locations=bytes(8),
        )
        result = RouterProcessor(ip_state).process(DipPacket(header=header))
        assert result.decision is Decision.DROP
        assert "2 FNs" in result.notes[0]

    def test_cycle_budget_drops(self, ip_state):
        ip_state.limits = ProcessingLimits(max_cycles=10)
        packet = build_ipv4_packet(0x0A000001, 0)
        result = RouterProcessor(
            ip_state, cost_model=CycleCostModel()
        ).process(packet)
        assert result.decision is Decision.DROP
        assert "budget exhausted" in result.notes[-1]

    def test_state_budget_drops(self):
        state = NodeState(node_id="r")
        state.limits = ProcessingLimits(max_state_bytes=10)
        state.name_fib_digest.insert(name_digest("/x"), 32, 2)
        packet = build_interest_packet("/x")  # PIT entry charges 64 bytes
        result = RouterProcessor(state).process(packet)
        assert result.decision is Decision.DROP


class TestCycleAccounting:
    def test_no_cost_model_means_zero_cycles(self, ip_state):
        result = RouterProcessor(ip_state).process(
            build_ipv4_packet(0x0A000001, 0)
        )
        assert result.cycles == 0

    def test_sequential_vs_parallel(self):
        """Disjoint-field FNs compress under the parallel flag."""
        state = NodeState(node_id="r")
        state.fib_v4.insert(0x0A000000, 8, 4)
        fns = (
            FieldOperation(0, 32, 1),
            FieldOperation(32, 32, 3),
            FieldOperation(64, 32, 13),  # telemetry, disjoint
        )
        locations = (0x0A000001).to_bytes(4, "big") + bytes(8)
        cost_model = CycleCostModel()
        for parallel in (False, True):
            header = DipHeader(fns=fns, locations=locations, parallel=parallel)
            result = RouterProcessor(state, cost_model=cost_model).process(
                DipPacket(header=header)
            )
            assert result.cycles_parallel < result.cycles_sequential
            expected = (
                result.cycles_parallel if parallel else result.cycles_sequential
            )
            assert result.cycles == expected

    def test_opt_chain_not_parallelizable(self):
        """F_parm/F_MAC/F_mark conflict -> no parallel win."""
        from repro.crypto.keys import RouterKey
        from repro.protocols.opt import negotiate_session

        session = negotiate_session(
            "s", "d", [RouterKey("r")], RouterKey("d")
        )
        state = NodeState(node_id="r")
        state.default_port = 1
        packet = build_opt_packet(session, b"p", parallel=True)
        result = RouterProcessor(state, cost_model=CycleCostModel()).process(
            packet
        )
        assert result.cycles_parallel == result.cycles_sequential


class TestConflictAnalysis:
    def test_overlap_conflicts(self):
        a = FieldOperation(0, 64, 1)
        b = FieldOperation(32, 64, 2)
        assert fns_conflict(a, b)

    def test_scratch_family_conflicts(self):
        parm = FieldOperation(128, 128, OperationKey.PARM)
        mark = FieldOperation(288, 128, OperationKey.MARK)
        assert not parm.overlaps(mark)
        assert fns_conflict(parm, mark)  # via the "opt" scratch family

    def test_dag_intent_conflict(self):
        dag = FieldOperation(0, 100, OperationKey.DAG)
        intent = FieldOperation(200, 100, OperationKey.INTENT)
        assert fns_conflict(dag, intent)

    def test_disjoint_independent(self):
        match = FieldOperation(0, 32, OperationKey.MATCH_32)
        telemetry = FieldOperation(64, 32, OperationKey.TELEMETRY)
        assert not fns_conflict(match, telemetry)

    def test_levels_respect_order(self):
        fns = [
            FieldOperation(0, 32, 1),
            FieldOperation(0, 32, 4),    # overlaps first
            FieldOperation(64, 32, 13),  # independent
        ]
        assert parallel_levels(fns) == [0, 1, 0]

    def test_levels_chain(self):
        fns = [
            FieldOperation(0, 64, 1),
            FieldOperation(32, 64, 2),
            FieldOperation(64, 64, 4),
        ]
        assert parallel_levels(fns) == [0, 1, 2]

    def test_dependency_analysis_orders_opt(self):
        """The conflict analysis keeps the OPT chain strictly ordered."""
        fns = [
            FieldOperation(128, 128, OperationKey.PARM),
            FieldOperation(0, 416, OperationKey.MAC),
            FieldOperation(288, 128, OperationKey.MARK),
        ]
        assert parallel_levels(fns) == [0, 1, 2]
