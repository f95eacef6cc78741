"""Tests for simulated nodes, the topology builder, and bootstrap."""

import pytest

from repro.core.fn import OperationKey
from repro.core.registry import default_registry
from repro.errors import SimulationError
from repro.netsim import (
    DipRouterNode,
    HostNode,
    LegacyRouterNode,
    Topology,
)
from repro.netsim.bootstrap import CapabilityMap, bootstrap_host
from repro.netsim.messages import Frame
from repro.protocols.ip.ipv4 import IPv4Header
from repro.realize.ndn import (
    build_data_packet,
    build_interest_packet,
    name_digest,
)


def line_topology():
    """host -- router -- host, NDN route installed toward producer."""
    topo = Topology()
    consumer = topo.add(HostNode("consumer", topo.engine, topo.trace))
    router = topo.add(DipRouterNode("router", topo.engine, topo.trace))
    producer = topo.add(HostNode("producer", topo.engine, topo.trace))
    topo.connect("consumer", 0, "router", 1)
    topo.connect("router", 2, "producer", 0)
    router.state.name_fib_digest.insert(name_digest("/a"), 32, 2)
    return topo, consumer, router, producer


class TestDipRouterNode:
    def test_forwards_interest(self):
        topo, consumer, router, producer = line_topology()
        consumer.send_packet(build_interest_packet("/a"))
        topo.run()
        assert producer.stats.received == 1
        assert router.stats.forwarded == 1

    def test_drop_counted(self):
        topo, consumer, router, producer = line_topology()
        consumer.send_packet(build_interest_packet("/unrouted"))
        topo.run()
        assert router.stats.dropped == 1
        assert producer.stats.received == 0

    def test_legacy_frame_dropped(self):
        topo, consumer, router, producer = line_topology()
        raw = IPv4Header(src=1, dst=2).encode()
        consumer.send(0, Frame.legacy("ipv4", raw))
        topo.run()
        assert router.stats.dropped == 1

    def test_multicast_data_fanout(self):
        """Data fans out to every PIT port (two consumers, one name)."""
        topo = Topology()
        a = topo.add(HostNode("a", topo.engine, topo.trace))
        b = topo.add(HostNode("b", topo.engine, topo.trace))
        router = topo.add(DipRouterNode("r", topo.engine, topo.trace))
        src = topo.add(HostNode("src", topo.engine, topo.trace))
        topo.connect("a", 0, "r", 1)
        topo.connect("b", 0, "r", 2)
        topo.connect("r", 3, "src", 0)
        router.state.name_fib_digest.insert(name_digest("/a"), 32, 3)
        a.send_packet(build_interest_packet("/a"))
        b.send_packet(build_interest_packet("/a"))
        topo.run()
        src.send_packet(build_data_packet("/a", b"c"))
        topo.run()
        assert a.stats.received == 1 and b.stats.received == 1


class TestUnsupportedSignalling:
    def test_control_message_reaches_source(self):
        topo = Topology()
        host = topo.add(HostNode("h", topo.engine, topo.trace))
        registry = default_registry().restricted({4, 5})
        router = topo.add(
            DipRouterNode("r", topo.engine, topo.trace, registry=registry)
        )
        topo.connect("h", 0, "r", 1)
        router.state.name_fib_digest.insert(name_digest("/a"), 32, 1)

        from repro.crypto.keys import RouterKey
        from repro.protocols.opt import negotiate_session
        from repro.realize.derived import build_ndn_opt_interest

        session = negotiate_session("h", "d", [RouterKey("r")], RouterKey("d"))
        host.send_packet(build_ndn_opt_interest("/a", session, b"p"))
        topo.run()
        assert router.stats.unsupported == 1
        assert len(host.control_inbox) == 1
        message = host.control_inbox[0]
        assert message.unsupported_key == OperationKey.PARM
        assert message.reporter_id == "r"

    def test_control_flood_deduplicated(self):
        """In a cycle, hosts see each control message exactly once."""
        topo = Topology()
        host = topo.add(HostNode("h", topo.engine, topo.trace))
        r1 = topo.add(DipRouterNode("r1", topo.engine, topo.trace))
        r2 = topo.add(DipRouterNode("r2", topo.engine, topo.trace))
        limited = default_registry().restricted({4})
        r3 = topo.add(
            DipRouterNode("r3", topo.engine, topo.trace, registry=limited)
        )
        topo.connect("h", 0, "r1", 1)
        topo.connect("r1", 2, "r2", 1)
        topo.connect("r2", 2, "r3", 1)
        topo.connect("r3", 2, "r1", 3)  # cycle r1-r2-r3
        for router in (r1, r2):
            router.state.name_fib_digest.insert(name_digest("/a"), 32, 2)
        r3.state.name_fib_digest.insert(name_digest("/a"), 32, 2)

        from repro.crypto.keys import RouterKey
        from repro.protocols.opt import negotiate_session
        from repro.realize.derived import build_ndn_opt_interest

        session = negotiate_session("h", "d", [RouterKey("x")], RouterKey("d"))
        host.send_packet(build_ndn_opt_interest("/a", session, b"p"))
        topo.run(max_events=10_000)
        assert len(host.control_inbox) == 1


class TestLegacyRouterNode:
    def test_forwards_ipv4(self):
        topo = Topology()
        a = topo.add(HostNode("a", topo.engine, topo.trace))
        legacy = topo.add(LegacyRouterNode("l", topo.engine, topo.trace))
        b = topo.add(HostNode("b", topo.engine, topo.trace))
        topo.connect("a", 0, "l", 1)
        topo.connect("l", 2, "b", 0)
        legacy.router.add_route_v4(0x0A000000, 8, 2)
        raw = IPv4Header(src=1, dst=0x0A000001, ttl=5).encode()
        a.send(0, Frame.legacy("ipv4", raw))
        topo.run()
        assert legacy.stats.forwarded == 1
        # host b receives a legacy frame (and drops it, being a DIP host)
        assert b.stats.received == 1

    def test_drops_dip_frames(self):
        topo = Topology()
        a = topo.add(HostNode("a", topo.engine, topo.trace))
        legacy = topo.add(LegacyRouterNode("l", topo.engine, topo.trace))
        topo.connect("a", 0, "l", 1)
        a.send_packet(build_interest_packet("/a"))
        topo.run()
        assert legacy.stats.dropped == 1


class TestTopology:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add(HostNode("x", topo.engine))
        with pytest.raises(SimulationError):
            topo.add(HostNode("x", topo.engine))

    def test_unknown_node_rejected(self):
        with pytest.raises(SimulationError):
            Topology().node("ghost")

    def test_double_port_wiring_rejected(self):
        topo = Topology()
        topo.add(HostNode("a", topo.engine))
        topo.add(HostNode("b", topo.engine))
        topo.add(HostNode("c", topo.engine))
        topo.connect("a", 0, "b", 0)
        with pytest.raises(SimulationError):
            topo.connect("a", 0, "c", 0)

    def test_shortest_path_uses_graph(self):
        import networkx as nx

        topo, *_ = line_topology()
        assert nx.shortest_path(topo.graph, "consumer", "producer") == [
            "consumer",
            "router",
            "producer",
        ]

    def test_wire_neighbor_labels(self):
        topo, consumer, router, producer = line_topology()
        topo.wire_neighbor_labels()
        assert router.state.neighbor_labels == {
            1: "consumer",
            2: "producer",
        }


class TestBootstrap:
    def test_host_learns_fns(self):
        topo, consumer, router, _producer = line_topology()
        keys = bootstrap_host(consumer, router)
        assert consumer.stack.available_fns == keys
        assert OperationKey.FIB in keys

    def test_capability_map_path_logic(self):
        cap = CapabilityMap()
        cap.advertise("as1", {1, 2, 3, 4})
        cap.advertise("as2", {1, 4, 7})
        assert cap.supported_on_path(["as1", "as2"]) == {1, 4}
        assert cap.supported_on_path([]) == set()
        missing = cap.missing_on_path({7}, ["as1", "as2"])
        assert missing == [("as1", 7)]

    def test_capability_map_unknown_as(self):
        cap = CapabilityMap()
        cap.advertise("as1", {1})
        assert cap.supported_on_path(["as1", "mystery"]) == set()

    def test_advertise_router(self):
        topo, _consumer, router, _producer = line_topology()
        cap = CapabilityMap()
        cap.advertise_router(router, as_id="AS64496")
        assert OperationKey.MAC in cap.capabilities_of("AS64496")
        # Member node ids resolve to their AS for every path query.
        assert cap.as_of("router") == "AS64496"
        assert cap.capabilities_of("router") == cap.capabilities_of("AS64496")
        assert cap.supported_on_path(["router"]) == cap.capabilities_of(
            "AS64496"
        )

    def test_advertise_router_requires_as_id(self):
        topo, _consumer, router, _producer = line_topology()
        cap = CapabilityMap()
        # The deprecated router-id-as-AS-id fallback is gone: the AS
        # must be named explicitly.
        with pytest.raises(TypeError):
            cap.advertise_router(router)
        assert cap.capabilities_of("router") == set()
