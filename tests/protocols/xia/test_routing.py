"""Tests for XIA fallback routing and the native router."""

import pytest

from repro.errors import ProtocolError
from repro.protocols.xia.dag import DagAddress
from repro.protocols.xia.router import XiaHeader, XiaRouter
from repro.protocols.xia.routing import XiaRouteTable, route_step
from repro.protocols.xia.xid import Xid, XidType

CID = Xid.for_content(b"chunk")
AD = Xid.from_name(XidType.AD, "ad")
HID = Xid.from_name(XidType.HID, "host")


@pytest.fixture
def dag():
    return DagAddress.with_fallback(CID, [AD, HID])


class TestRouteTable:
    def test_unknown_type_lookup_none(self):
        assert XiaRouteTable().lookup(CID) is None

    def test_local_flags(self):
        table = XiaRouteTable()
        table.add_local(HID)
        assert table.is_local(HID)
        assert not table.is_local(AD)



class TestRouteStep:
    def test_priority_edge_preferred(self, dag):
        """A CID route shortcuts the fallback path."""
        table = XiaRouteTable()
        table.add_route(AD, 1)
        table.add_route(CID, 9)
        decision = route_step(dag, -1, table)
        assert decision.action == "forward" and decision.port == 9

    def test_fallback_when_intent_unroutable(self, dag):
        table = XiaRouteTable()
        table.add_route(AD, 1)
        decision = route_step(dag, -1, table)
        assert decision.action == "forward" and decision.port == 1

    def test_local_advance_then_forward(self, dag):
        """Inside the AD: pointer advances, HID route used next."""
        table = XiaRouteTable()
        table.add_local(AD)
        table.add_route(HID, 4)
        decision = route_step(dag, -1, table)
        assert decision.action == "forward"
        assert decision.port == 4
        assert decision.last_visited == 0  # advanced to the AD node

    def test_deliver_at_intent(self, dag):
        table = XiaRouteTable()
        table.add_local(AD)
        table.add_local(CID)
        decision = route_step(dag, -1, table)
        assert decision.action == "deliver"

    def test_unroutable_drops(self, dag):
        decision = route_step(dag, -1, XiaRouteTable())
        assert decision.action == "drop"

    def test_resume_from_pointer(self, dag):
        """A downstream router resumes from the recorded DAG node."""
        table = XiaRouteTable()
        table.add_local(HID)
        table.add_local(CID)
        decision = route_step(dag, 0, table)  # pointer at the AD node
        assert decision.action == "deliver"


class TestXiaHeaderAndRouter:
    def test_header_roundtrip(self, dag):
        header = XiaHeader(dag=dag, last_visited=1, hop_limit=9)
        assert XiaHeader.decode(header.encode()) == header

    def test_header_pointer_bounds(self, dag):
        with pytest.raises(ProtocolError):
            XiaHeader(dag=dag, last_visited=3)
        with pytest.raises(ProtocolError):
            XiaHeader(dag=dag, last_visited=-2)

    def test_advanced_decrements_hops(self, dag):
        header = XiaHeader(dag=dag, hop_limit=5)
        moved = header.advanced(0)
        assert moved.last_visited == 0 and moved.hop_limit == 4

    def test_router_hop_limit_expiry(self, dag):
        router = XiaRouter()
        router.table.add_route(AD, 1)
        decision = router.process(XiaHeader(dag=dag, hop_limit=0))
        assert decision.action == "drop" and "hop limit" in decision.reason

    def test_router_forwards(self, dag):
        router = XiaRouter()
        router.table.add_route(AD, 2)
        decision = router.process(XiaHeader(dag=dag))
        assert decision.action == "forward" and decision.port == 2
