"""The flow cache is invisible to XIA: F_DAG/F_intent are pure.

F_DAG and F_intent read and rewrite only their DAG field, against the
node's XIA route table, so the flow decision cache may replay their
verdicts -- provided every table edit moves the processor's state
token.  This property drives a flow-cached ``RouterProcessor`` with
random DAGs (direct, fallback, arbitrary), XIA hop limits down to 0,
the malformed fields of the F_DAG regression vectors, and DAG fields at
byte-aligned and unaligned offsets, interleaved with random
``add_route``/``add_local`` calls.  Each packet is replayed twice, with
different bits around the field, and both results must equal the
reference interpreter's field by field: decision, ports, rewritten
bytes, notes, model cycles, scratch and failure class.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.reference import ReferenceInterpreter
from repro.core.flowcache import FlowDecisionCache
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.protocols.xia.dag import DagAddress, DagNode
from repro.protocols.xia.router import XiaHeader
from repro.protocols.xia.xid import Xid, XidType
from repro.util.bitview import BitView

POOL = (
    Xid.from_name(XidType.AD, "ad-1"),
    Xid.from_name(XidType.AD, "ad-2"),
    Xid.from_name(XidType.HID, "host"),
    Xid.from_name(XidType.SID, "service"),
    Xid.for_content(b"chunk-1"),
    Xid.for_content(b"chunk-2"),
)
xids = st.sampled_from(POOL)


@st.composite
def arbitrary_dags(draw):
    """Any acyclic DAG over the pool: edges only point to later nodes."""
    count = draw(st.integers(min_value=1, max_value=4))
    nodes = []
    for index in range(count):
        later = range(index + 1, count)
        edges = draw(st.lists(st.sampled_from(later), unique=True)) if later else []
        nodes.append(DagNode(draw(xids), tuple(edges)))
    entry = draw(
        st.lists(st.sampled_from(range(count)), min_size=1, max_size=4, unique=True)
    )
    return DagAddress(tuple(nodes), tuple(entry))


dags = st.one_of(
    st.builds(DagAddress.direct, xids),
    st.builds(DagAddress.with_fallback, xids, st.lists(xids, max_size=3)),
    arbitrary_dags(),
)


@st.composite
def well_formed_fields(draw):
    dag = draw(dags)
    return XiaHeader(
        dag=dag,
        last_visited=draw(
            st.one_of(st.just(-1), st.integers(-1, len(dag.nodes) - 1))
        ),
        hop_limit=draw(st.sampled_from([0, 1, 64, 64])),
    ).encode()


def _pointer_out_of_range(dag):
    field = bytearray(XiaHeader(dag).encode())
    field[1] = 50  # node 49 of a shorter DAG
    return bytes(field)


# The F_DAG regression vectors' fields: no XIA prefix, no DAG, truncated
# entry edges, and a pointer past the DAG.
malformed_fields = st.one_of(
    st.sampled_from([b"\x05", b"\x05\x00", b"\x05\x00\x01\x05\x00\x00"]),
    st.builds(_pointer_out_of_range, dags),
    st.binary(min_size=1, max_size=48),
)

flows = st.tuples(
    st.one_of(well_formed_fields(), well_formed_fields(), malformed_fields),
    st.sampled_from([0, 3, 8, 13]),  # DAG field offset in bits
    st.sampled_from([True, True, False]),  # F_intent after F_DAG
    st.integers(min_value=0, max_value=3),  # ingress port
)
edits = st.one_of(
    st.tuples(st.just("route"), xids, st.integers(min_value=0, max_value=7)),
    st.tuples(st.just("local"), xids),
)


def wire(field, offset, with_intent, padding):
    """A DIP packet whose locations hold ``field`` at bit ``offset``,
    the bits around it taken from ``padding``."""
    bits = len(field) * 8
    size = (offset + bits + 7) // 8 + (offset > 0)
    locations = BitView(padding[:size])
    locations.set_bits(offset, bits, field)
    fns = [FieldOperation(offset, bits, OperationKey.DAG)]
    if with_intent:
        fns.append(FieldOperation(offset, bits, OperationKey.INTENT))
    header = DipHeader(fns=tuple(fns), locations=locations.to_bytes())
    return DipPacket(header=header, payload=b"xia").encode()


def as_tuple(result):
    return (
        result.decision,
        result.ports,
        None if result.packet is None else result.packet.encode(),
        result.notes,
        result.cycles,
        result.cycles_sequential,
        result.cycles_parallel,
        result.unsupported_key,
        result.scratch,
        result.failure,
    )


@settings(max_examples=200, deadline=None)
@given(
    flows=st.lists(flows, min_size=1, max_size=4),
    routes=st.lists(st.tuples(xids, st.integers(0, 7)), max_size=6),
    edits=st.lists(edits, max_size=8),
    padding=st.binary(min_size=128, max_size=128),
)
def test_flow_cached_xia_matches_the_reference(flows, routes, edits, padding):
    state = NodeState(node_id="xia-cache")
    for xid, port in routes:
        state.xia_table.add_route(xid, port)
    cost_model = CycleCostModel()
    processor = RouterProcessor(
        state, cost_model=cost_model, flow_cache=FlowDecisionCache()
    )
    reference = ReferenceInterpreter(state, cost_model=cost_model)
    complement = bytes(byte ^ 0xFF for byte in padding)

    def replay_every_flow():
        # Twice per flow, the second time with every bit around its
        # field flipped.
        for field, offset, with_intent, port in flows:
            for bits_around in (padding, complement):
                raw = wire(field, offset, with_intent, bits_around)
                (got,) = processor.process_batch(
                    [raw], ingress_port=port, collect_notes=True
                )
                assert as_tuple(got) == as_tuple(
                    reference.process(raw, ingress_port=port)
                )

    replay_every_flow()
    for kind, xid, *port in edits:
        if kind == "route":
            state.xia_table.add_route(xid, *port)
        else:
            state.xia_table.add_local(xid)
        replay_every_flow()
    # A byte-aligned DAG field is keyed in whole bytes, so its second
    # replay is always answered from the cache.
    aligned = sum(offset % 8 == 0 for _, offset, _, _ in flows)
    assert processor.flow_cache.hits >= aligned * (len(edits) + 1)
    assert processor.flow_cache.bypasses == 0
