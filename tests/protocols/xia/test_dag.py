"""Tests for XIA DAG addresses."""

import pytest

from repro.errors import ProtocolError
from repro.protocols.xia.dag import MAX_OUT_EDGES, DagAddress, DagNode
from repro.protocols.xia.xid import Xid, XidType

CID = Xid.for_content(b"content")
AD = Xid.from_name(XidType.AD, "ad")
HID = Xid.from_name(XidType.HID, "host")


class TestConstruction:
    def test_direct(self):
        dag = DagAddress.direct(CID)
        assert dag.intent == CID
        assert dag.entry_edges == (0,)
        assert dag.successors(-1) == (0,)

    def test_with_fallback_structure(self):
        dag = DagAddress.with_fallback(CID, [AD, HID])
        # entry prefers intent (index 2), falls back to AD (index 0)
        assert dag.entry_edges == (2, 0)
        assert dag.intent == CID
        # AD prefers intent then HID; HID prefers intent only
        assert dag.nodes[0].edges == (2, 1)
        assert dag.nodes[1].edges == (2,)
        assert dag.nodes[2].edges == ()

    def test_with_empty_fallback_is_direct(self):
        assert DagAddress.with_fallback(CID, []) == DagAddress.direct(CID)

    def test_cycle_rejected(self):
        with pytest.raises(ProtocolError):
            DagAddress(
                nodes=(DagNode(AD, (1,)), DagNode(HID, (0,))),
                entry_edges=(0,),
            )

    def test_self_loop_rejected(self):
        with pytest.raises(ProtocolError):
            DagAddress(nodes=(DagNode(AD, (0,)),), entry_edges=(0,))

    def test_edge_bounds_checked(self):
        with pytest.raises(ProtocolError):
            DagAddress(nodes=(DagNode(AD, (5,)),), entry_edges=(0,))
        with pytest.raises(ProtocolError):
            DagAddress(nodes=(DagNode(AD),), entry_edges=(3,))

    def test_empty_rejected(self):
        with pytest.raises(ProtocolError):
            DagAddress(nodes=(), entry_edges=(0,))
        with pytest.raises(ProtocolError):
            DagAddress(nodes=(DagNode(AD),), entry_edges=())

    def test_fanout_capped(self):
        with pytest.raises(ProtocolError):
            DagNode(AD, tuple(range(MAX_OUT_EDGES + 1)))


class TestWireFormat:
    def test_roundtrip(self):
        dag = DagAddress.with_fallback(CID, [AD, HID])
        decoded, consumed = DagAddress.decode(dag.encode())
        assert decoded == dag
        assert consumed == len(dag.encode())

    def test_roundtrip_with_trailing_bytes(self):
        dag = DagAddress.direct(CID)
        decoded, consumed = DagAddress.decode(dag.encode() + b"extra")
        assert decoded == dag
        assert consumed == len(dag.encode())

    def test_truncated(self):
        dag = DagAddress.with_fallback(CID, [AD])
        encoded = dag.encode()
        for cut in (0, 1, 5, len(encoded) - 1):
            with pytest.raises(ProtocolError):
                DagAddress.decode(encoded[:cut])

