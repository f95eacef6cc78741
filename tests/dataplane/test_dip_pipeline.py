"""Equivalence: the hardware-shaped pipeline vs the reference
interpreter, across every protocol realization.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.composer import lint_program
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.processor import Decision, RouterProcessor
from repro.core.registry import default_registry
from repro.core.state import NodeState
from repro.crypto.keys import RouterKey
from repro.dataplane.dip_pipeline import DipPipeline
from repro.errors import PipelineConstraintError
from repro.protocols.opt import negotiate_session
from repro.protocols.xia import DagAddress, Xid, XidType
from repro.realize.derived import build_ndn_opt_interest
from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
from repro.realize.ndn import build_data_packet, build_interest_packet, name_digest
from repro.realize.opt import build_opt_packet
from repro.realize.xia import build_xia_packet


def paired_states(node_id="dp"):
    """Two identical NodeStates (pipeline and processor must not share
    mutable PIT/cache state or the comparison is confounded)."""
    states = []
    for _ in range(2):
        state = NodeState(node_id=node_id)
        state.fib_v4.insert(0x0A000000, 8, 2)
        state.fib_v6.insert(0x20010DB8 << 96, 32, 3)
        state.name_fib_digest.insert(name_digest("/eq"), 32, 4)
        state.neighbor_labels[1] = "src"
        states.append(state)
    return states


def assert_equivalent(packet, configure=None, ingress=1):
    state_a, state_b = paired_states()
    if configure is not None:
        configure(state_a)
        configure(state_b)
    reference = RouterProcessor(state_a).process(packet, ingress_port=ingress)
    pipeline = DipPipeline(state_b).process(packet, ingress_port=ingress)
    assert pipeline.decision == reference.decision
    assert pipeline.ports == reference.ports
    if reference.packet is None:
        assert pipeline.packet is None
    else:
        assert pipeline.packet == reference.packet
    return pipeline


class TestEquivalence:
    def test_ipv4(self):
        assert_equivalent(build_ipv4_packet(0x0A000001, 7, payload=b"x"))

    def test_ipv4_no_route(self):
        assert_equivalent(build_ipv4_packet(0x7F000001, 7))

    def test_ipv6(self):
        assert_equivalent(
            build_ipv6_packet((0x20010DB8 << 96) | 5, 9, payload=b"y")
        )

    def test_ndn_interest(self):
        assert_equivalent(build_interest_packet("/eq", payload=b"z"))

    def test_ndn_data_pit_miss(self):
        assert_equivalent(build_data_packet("/eq", b"content"))

    def test_ndn_data_pit_hit(self):
        from repro.core.operations.fib import digest_name

        def arm_pit(state):
            state.pit.insert(digest_name(name_digest("/eq")), in_port=6)

        result = assert_equivalent(
            build_data_packet("/eq", b"content"), configure=arm_pit
        )
        assert result.ports == (6,)

    def test_opt(self):
        session = negotiate_session(
            "src", "d", [RouterKey("dp")], RouterKey("d"), nonce=b"eq"
        )

        def arm_opt(state):
            state.opt_positions[session.session_id] = 0
            state.default_port = 9

        result = assert_equivalent(
            build_opt_packet(session, b"payload"), configure=arm_opt
        )
        assert result.decision is Decision.FORWARD

    def test_ndn_opt(self):
        session = negotiate_session(
            "src", "d", [RouterKey("dp")], RouterKey("d"), nonce=b"eq2"
        )

        def arm(state):
            state.opt_positions[session.session_id] = 0

        assert_equivalent(
            build_ndn_opt_interest("/eq", session, b"p"), configure=arm
        )

    def test_xia(self):
        cid = Xid.for_content(b"eq-chunk")
        ad = Xid.from_name(XidType.AD, "eq-ad")
        dag = DagAddress.with_fallback(cid, [ad])

        def arm(state):
            state.xia_table.add_route(ad, 5)

        result = assert_equivalent(build_xia_packet(dag), configure=arm)
        assert result.ports == (5,)

    def test_unsupported_path_critical(self):
        session = negotiate_session(
            "src", "d", [RouterKey("dp")], RouterKey("d"), nonce=b"eq3"
        )
        packet = build_ndn_opt_interest("/eq", session, b"p")
        state_a, state_b = paired_states()
        limited = default_registry().restricted({1, 2, 3, 4, 5})
        reference = RouterProcessor(state_a, registry=limited).process(
            packet, ingress_port=1
        )
        pipeline = DipPipeline(state_b, registry=limited).process(
            packet, ingress_port=1
        )
        assert (
            pipeline.decision
            == reference.decision
            == Decision.UNSUPPORTED
        )
        assert pipeline.unsupported_key == reference.unsupported_key


class TestHardwareConstraints:
    def test_stage_budget_rejects_long_programs(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        fns = tuple(FieldOperation(0, 8, 13) for _ in range(6))
        packet = DipPacket(header=DipHeader(fns=fns, locations=b"\x00"))
        state, _ = paired_states()
        pipeline = DipPipeline(state, max_fns=4)
        with pytest.raises(PipelineConstraintError):
            pipeline.process(packet)

    def test_unroll_cannot_exceed_global_budget(self):
        state, _ = paired_states()
        with pytest.raises(PipelineConstraintError):
            DipPipeline(state, max_fns=20)

    def test_host_fns_consume_no_stage(self):
        session = negotiate_session(
            "src", "d", [RouterKey("dp")], RouterKey("d"), nonce=b"eq4"
        )
        state, _ = paired_states()
        state.opt_positions[session.session_id] = 0
        state.default_port = 9
        # 4 FNs must parse, but only the 3 router FNs need stages.
        pipeline = DipPipeline(state, max_fns=4)
        result = pipeline.process(
            build_opt_packet(session, b"p"), ingress_port=1
        )
        assert result.decision is Decision.FORWARD
        assert result.stages_executed == 3

    @settings(max_examples=60, deadline=None)
    @given(
        fns=st.lists(
            st.builds(
                FieldOperation,
                field_loc=st.just(0),
                field_len=st.sampled_from([0, 8]),
                key=st.sampled_from([int(key) for key in OperationKey] + [99]),
                tag=st.booleans(),
            ),
            max_size=16,
        )
    )
    # IPv4's two router FNs plus 11 host FNs: 13 FNs, 2 for routers.
    @example(
        fns=[
            FieldOperation(0, 8, OperationKey.MATCH_32),
            FieldOperation(0, 8, OperationKey.SOURCE),
        ]
        + [FieldOperation(0, 8, OperationKey.VERIFY, tag=True)] * 11
    )
    def test_linter_and_pipeline_share_the_stage_budget(self, fns):
        """W-STAGES fires exactly when the pipeline refuses the program."""
        # Hop limit 0: the parse and its unroll budget run, no module does.
        header = DipHeader(fns=tuple(fns), locations=b"\x00", hop_limit=0)
        wire = DipPacket(header=header).encode()
        pipeline = DipPipeline(NodeState())
        if "W-STAGES" in [d.code for d in lint_program(header)]:
            with pytest.raises(PipelineConstraintError):
                pipeline.process(wire)
        else:
            assert pipeline.process(wire).notes == ["hop limit expired"]

    def test_parser_rejects_truncated(self):
        state, _ = paired_states()
        pipeline = DipPipeline(state)

        packet = build_ipv4_packet(0x0A000001, 7)
        # Craft a DipPacket whose encode() yields truncated bytes by
        # decoding a truncated buffer -> decode raises, so instead feed
        # the pipeline a packet with corrupted fn_num via raw parse.
        raw = packet.encode()[:8]  # cut inside the FN triples
        parse = pipeline.parser.parse(raw)
        assert not parse.accepted


class TestWireInput:
    """``process`` parses the wire itself and fails like the codec."""

    def _wires(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        ipv4 = build_ipv4_packet(0x0A000001, 7, payload=b"xy")
        header = ipv4.header
        overfull = DipPacket(
            header=DipHeader(
                fns=tuple(FieldOperation(0, 8, 13) for _ in range(14)),
                locations=header.locations,
            )
        )
        return [ipv4.encode(), overfull.encode()]

    def test_truncated_wires_raise_the_codec_error(self):
        from repro.core.packet import DipPacket

        state, _ = paired_states()
        pipeline = DipPipeline(state)
        for wire in self._wires():
            for cut in range(len(wire)):
                short = wire[:cut]
                try:
                    DipPacket.decode(short)
                except Exception as exc:
                    expected = exc
                else:
                    continue  # only the payload was cut
                with pytest.raises(type(expected)) as raised:
                    pipeline.process(short)
                assert str(raised.value) == str(expected)

    def test_unroll_budget_after_codec_checks(self):
        state, _ = paired_states()
        with pytest.raises(PipelineConstraintError):
            DipPipeline(state).process(self._wires()[1])

    def test_field_range_before_hop_limit(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket
        from repro.errors import FieldRangeError

        header = build_ipv4_packet(0x0A000001, 7).header
        wire = DipPacket(
            header=DipHeader(
                fns=header.fns + (FieldOperation(64, 32, 1),),
                locations=header.locations[:4],
                hop_limit=0,
            )
        ).encode()
        state, _ = paired_states()
        with pytest.raises(FieldRangeError):
            DipPipeline(state).process(wire)

    def test_forward_is_a_splice_of_the_input(self):
        packet = build_ipv4_packet(0x0A000001, 7, payload=b"payload")
        state, _ = paired_states()
        result = DipPipeline(state).process(packet.encode(), ingress_port=1)
        expected = DipPacket(
            packet.header.with_hop_limit(packet.header.hop_limit - 1),
            packet.payload,
        )
        assert result.wire == expected.encode()
        assert result.packet == expected
        assert result.header_length == packet.header.header_length
        assert result.fns == packet.header.fns


# ----------------------------------------------------------------------
# the compiled parse plan
# ----------------------------------------------------------------------
def _bounds(wire):
    """``(fn_num, loc_start, header_length)`` read off a wire's header."""
    from repro.core.header import MAX_LOC_LEN

    loc_start = 6 + 6 * wire[2]
    param = (wire[4] << 8) | wire[5]
    return wire[2], loc_start, loc_start + ((param >> 1) & MAX_LOC_LEN)


def _takes_plan(wire, max_fns):
    """True when a wire passes the plan's bounds check."""
    if len(wire) < 6:
        return False
    fn_num, _, header_length = _bounds(wire)
    return fn_num <= max_fns and len(wire) >= header_length


def _program_variants(wire, max_fns):
    """Wires sharing ``wire``'s program that each fail in their own way:
    truncated in the FN definitions and in the locations, locations too
    short for the program's fields, hop limit 0, and over the unroll
    budget."""
    fn_num, loc_start, header_length = _bounds(wire)
    payload = wire[header_length:]
    variants = [
        wire[:loc_start - 1],
        wire[:header_length - 1],
        wire[:3] + b"\x00" + wire[4:],
        # Locations dropped entirely: any FN field past bit 0 is out of
        # range, checked before the (expired) hop limit.
        wire[:3] + b"\x00" + bytes((0, wire[5] & 1)) + wire[6:loc_start]
        + payload,
    ]
    defs = wire[6:loc_start]
    if defs:
        over = max_fns + 1
        variants.append(
            wire[:2] + bytes((over,)) + wire[3:6]
            + (defs * over)[:6 * over] + wire[loc_start:]
        )
    return [v for v in variants if len(v) >= 6]


def _outcome(pipeline, wire):
    try:
        r = pipeline.process(wire, ingress_port=1)
    except Exception as exc:
        return type(exc), str(exc)
    return (
        r.decision, r.ports, r.wire, r.notes, r.fns, r.header_length,
        r.stages_executed, r.unsupported_key,
    )


def _corpus_groups():
    from repro.conformance import load_corpus
    from tests.conformance.conftest import CORPUS_DIR

    groups = {}
    for vector in load_corpus(CORPUS_DIR):
        groups.setdefault((vector.scenario, vector.seed), []).extend(
            vector.wire_bytes()
        )
    return groups


CORPUS_GROUPS = _corpus_groups()


class TestCompiledPlan:
    """A warm plan decides exactly like a fresh pipeline's graph walk."""

    @pytest.mark.parametrize(
        "group", sorted(CORPUS_GROUPS), ids=lambda g: f"{g[0]}-seed{g[1]}"
    )
    def test_warm_plans_match_a_fresh_pipeline(self, group):
        from repro.conformance.scenarios import (
            scenario_registry,
            scenario_state,
        )

        name, seed = group
        wires = list(CORPUS_GROUPS[group])
        programs = {}
        for wire in wires:
            if _takes_plan(wire, 12):
                programs.setdefault(wire[6:_bounds(wire)[1]], wire)
        for wire in programs.values():
            wires.extend(_program_variants(wire, 12))

        warm = DipPipeline(
            scenario_state(name, seed),
            scenario_registry(name) or default_registry(),
        )
        fresh_state = scenario_state(name, seed)
        fresh_registry = scenario_registry(name) or default_registry()
        for replay in ("cold", "warm"):
            for wire in wires:
                walks = warm.parse_graph_walks
                got = _outcome(warm, wire)
                assert got == _outcome(
                    DipPipeline(fresh_state, fresh_registry), wire
                ), (replay, wire.hex())
                if replay == "warm":
                    # Only a wire that fails the bounds check walks.
                    walked = warm.parse_graph_walks - walks
                    assert walked == (not _takes_plan(wire, 12)), wire.hex()

    def test_a_compiled_program_keeps_the_error_order(self):
        from repro.errors import FieldRangeError, TruncatedHeaderError

        state, _ = paired_states()
        pipeline = DipPipeline(state, max_fns=4)
        wire = build_ipv4_packet(0x0A000001, 7, payload=b"ok").encode()
        pipeline.process(wire)
        cut_defs, cut_locs, expired, range_first, over = (
            _program_variants(wire, 4)
        )
        with pytest.raises(TruncatedHeaderError):
            pipeline.process(cut_defs)
        with pytest.raises(TruncatedHeaderError):
            pipeline.process(cut_locs)
        assert pipeline.process(expired).notes == ["hop limit expired"]
        with pytest.raises(FieldRangeError):
            pipeline.process(range_first)
        with pytest.raises(PipelineConstraintError):
            pipeline.process(over)
        # The first frame and the three failing the bounds check walked.
        assert pipeline.parse_graph_walks == 4

    def test_plans_are_bounded_like_the_program_cache(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket
        from repro.core.program import PROGRAM_CACHE_BOUND

        state, _ = paired_states()
        pipeline = DipPipeline(state)
        for key in range(2 * PROGRAM_CACHE_BOUND):
            fn = FieldOperation(0, 0, key=key, tag=True)
            pipeline.process(DipPacket(header=DipHeader(fns=(fn,))).encode())
            assert len(pipeline.programs) <= PROGRAM_CACHE_BOUND
        assert pipeline.parse_graph_walks == 2 * PROGRAM_CACHE_BOUND

    def test_a_registry_mutation_walks_the_graph_again(self):
        from repro.core.registry import RegistryMutation

        state, _ = paired_states()
        pipeline = DipPipeline(state)
        wire = build_ipv4_packet(0x0A000001, 7).encode()
        first = pipeline.process(wire, ingress_port=1)
        pipeline.process(wire, ingress_port=1)
        assert pipeline.parse_graph_walks == 1
        RegistryMutation(restore_defaults=True).apply(pipeline.registry)
        again = pipeline.process(wire, ingress_port=1)
        assert pipeline.parse_graph_walks == 2
        assert (again.decision, again.ports, again.wire) == (
            first.decision, first.ports, first.wire
        )
        # A module that left the registry is a miss in the recompiled
        # plan, on every frame, exactly as in a fresh pipeline.
        RegistryMutation(drop_keys=(1,)).apply(pipeline.registry)
        fresh = DipPipeline(paired_states()[0], pipeline.registry)
        for _ in range(2):
            assert _outcome(pipeline, wire) == _outcome(fresh, wire)
        assert pipeline.parse_graph_walks == 3

    @pytest.mark.parametrize("change", ["install", "drop"])
    def test_a_stale_pipeline_dispatches_like_a_fresh_one(self, change):
        """A pipeline built before a ``RegistryMutation`` follows the
        live registry: installing F_tel_array (key 19) or dropping
        F_32_match (key 1) decides like a fresh pipeline and like
        ``RouterProcessor``."""
        from repro.core.fn import OperationKey
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket
        from repro.core.registry import RegistryMutation
        from repro.realize.extensions import with_telemetry_array
        from repro.realize.ip import build_ipv4_header

        registry = default_registry()
        if change == "install":
            registry.unregister(OperationKey.TELEMETRY_ARRAY)
            mutation = RegistryMutation(restore_defaults=True)
        else:
            mutation = RegistryMutation(drop_keys=(OperationKey.MATCH_32,))
        header = with_telemetry_array(build_ipv4_header(0x0A000001, 7), 4)
        wire = DipPacket(header=header, payload=b"t").encode()
        stale = DipPipeline(paired_states()[0], registry)
        stale.process(wire, ingress_port=1)
        mutation.apply(registry)

        got = stale.process(wire, ingress_port=1)
        fresh = DipPipeline(paired_states()[0], registry).process(
            wire, ingress_port=1
        )
        reference = RouterProcessor(
            paired_states()[0], registry=registry
        ).process(DipPacket.decode(wire), ingress_port=1)
        assert (got.decision, got.ports, got.wire, got.notes) == (
            fresh.decision, fresh.ports, fresh.wire, fresh.notes
        )
        packet = reference.packet
        assert (got.decision, got.ports, got.wire) == (
            reference.decision,
            reference.ports,
            None if packet is None else packet.encode(),
        )
