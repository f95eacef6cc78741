"""Link-failure recovery and XIA service chains."""


from repro.netsim import DipRouterNode, HostNode, Topology
from repro.protocols.xia import DagAddress, Xid, XidType
from repro.protocols.xia.dag import DagNode
from repro.realize.ndn import name_digest
from repro.realize.xia import build_xia_packet
from tests.integration.support import fetch, producer_app, received

CONTENT = {name_digest("/flaky/item"): b"survives"}


def service_chain(services, final):
    """A DAG that visits every service in order, then ``final``: each
    chain node has exactly one successor, so no shortcut edges."""
    nodes = [DagNode(xid, (position + 1,)) for position, xid in enumerate(services)]
    return DagAddress(nodes=(*nodes, DagNode(final)), entry_edges=(0,))


class TestLinkFailureRecovery:
    def build(self):
        topo = Topology()
        consumer = topo.add(HostNode("consumer", topo.engine, topo.trace))
        router = topo.add(DipRouterNode("r", topo.engine, topo.trace))
        producer = topo.add(
            HostNode("producer", topo.engine, topo.trace,
                     app=producer_app(CONTENT))
        )
        topo.connect("consumer", 0, "r", 1)
        upstream = topo.connect("r", 2, "producer", 0)
        for digest in CONTENT:
            router.state.name_fib_digest.insert(digest, 32, 2)
        return topo, consumer, router, producer, upstream

    def test_retransmission_rides_out_a_flap(self):
        topo, consumer, router, producer, upstream = self.build()
        digest = next(iter(CONTENT))

        upstream.up = False  # the upstream link is down at send time
        fetch(consumer, digest, timeout=0.3, attempts=4)
        topo.engine.schedule(0.5, setattr, upstream, "up", True)
        topo.run()

        # The first interest died on the down link, so a retransmission
        # fetched the content.
        assert upstream.frames_dropped >= 1
        assert received(consumer) == {digest: b"survives"}

    def test_permanent_failure_gives_up(self):
        topo, consumer, router, producer, upstream = self.build()
        digest = next(iter(CONTENT))
        upstream.up = False
        fetch(consumer, digest, timeout=0.1, attempts=2)
        topo.run()
        assert not received(consumer)
        assert upstream.frames_dropped == 2  # both attempts, then silence
        assert producer.stats.received == 0


class TestXiaServiceChain:
    def test_chain_over_netsim(self):
        firewall = Xid.from_name(XidType.SID, "fw")
        dest = Xid.from_name(XidType.HID, "srv")
        dag = service_chain([firewall], dest)

        topo = Topology()
        client = topo.add(HostNode("client", topo.engine, topo.trace))
        ingress = topo.add(DipRouterNode("ingress", topo.engine, topo.trace))
        middlebox = topo.add(DipRouterNode("middlebox", topo.engine, topo.trace))
        server_router = topo.add(
            DipRouterNode("server-rt", topo.engine, topo.trace)
        )
        topo.connect("client", 0, "ingress", 1)
        topo.connect("ingress", 2, "middlebox", 1)
        topo.connect("middlebox", 2, "server-rt", 1)

        ingress.state.xia_table.add_route(firewall, 2)
        middlebox.state.xia_table.add_local(firewall)  # service runs here
        middlebox.state.xia_table.add_route(dest, 2)
        server_router.state.xia_table.add_local(firewall)
        server_router.state.xia_table.add_local(dest)

        client.send_packet(build_xia_packet(dag, payload=b"req"))
        topo.run()
        assert len(server_router.local_inbox) == 1

    def test_service_cannot_be_skipped(self):
        """A router knowing a direct route to the final intent must NOT
        bypass the unvisited service (no shortcut edge exists)."""
        firewall = Xid.from_name(XidType.SID, "fw2")
        dest = Xid.from_name(XidType.HID, "srv2")
        dag = service_chain([firewall], dest)

        from repro.protocols.xia.routing import XiaRouteTable, route_step

        table = XiaRouteTable()
        table.add_route(dest, 9)  # tempting shortcut
        decision = route_step(dag, -1, table)
        # the only successor of the entry is the firewall, unroutable here
        assert decision.action == "drop"
