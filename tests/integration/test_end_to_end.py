"""End-to-end integration tests: all five protocol realizations over
the network simulator, mirroring Section 3 of the paper.
"""

import dataclasses
from ipaddress import IPv6Address


from repro.crypto.keys import RouterKey
from repro.netsim import DipRouterNode, HostNode, Topology
from repro.protocols.ip.addresses import parse_ipv4
from repro.protocols.opt import negotiate_session
from repro.protocols.xia import DagAddress, Xid, XidType
from repro.realize.derived import build_ndn_opt_data
from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
from repro.realize.ndn import (
    build_data_packet,
    build_interest_packet,
    install_name_route,
)
from repro.realize.opt import build_opt_packet, build_routed_opt_packet
from repro.realize.xia import build_xia_packet


def line(n_routers=2, host_names=("src", "dst")):
    """src -- r1 -- ... -- rN -- dst."""
    topo = Topology()
    src = topo.add(HostNode(host_names[0], topo.engine, topo.trace))
    routers = [
        topo.add(DipRouterNode(f"r{i+1}", topo.engine, topo.trace))
        for i in range(n_routers)
    ]
    dst = topo.add(HostNode(host_names[1], topo.engine, topo.trace))
    topo.connect(host_names[0], 0, "r1", 1)
    for i in range(n_routers - 1):
        topo.connect(f"r{i+1}", 2, f"r{i+2}", 1)
    topo.connect(f"r{n_routers}", 2, host_names[1], 0)
    topo.wire_neighbor_labels()
    return topo, src, routers, dst


class TestIpOverDip:
    def test_ipv4_end_to_end(self):
        topo, src, routers, dst = line(3)
        target = parse_ipv4("10.1.2.3")
        for router in routers:
            router.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 2)
        src.send_packet(build_ipv4_packet(target, parse_ipv4("172.16.0.1")))
        topo.run()
        assert dst.stats.received == 1
        assert len(dst.inbox) == 1
        # hop limit decremented once per router
        packet, _result = dst.inbox[0]
        assert packet.header.hop_limit == 64 - 3

    def test_ipv6_end_to_end(self):
        topo, src, routers, dst = line(2)
        prefix = int(IPv6Address("2001:db8::"))
        for router in routers:
            router.state.fib_v6.insert(prefix, 32, 2)
        src.send_packet(
            build_ipv6_packet(
                int(IPv6Address("2001:db8::7")), int(IPv6Address("::1"))
            )
        )
        topo.run()
        assert len(dst.inbox) == 1

    def test_ttl_exhaustion_drops_midpath(self):
        topo, src, routers, dst = line(3)
        for router in routers:
            router.state.fib_v4.insert(0, 0, 2)
        src.send_packet(build_ipv4_packet(1, 2, hop_limit=2))
        topo.run()
        assert len(dst.inbox) == 0
        assert routers[2].stats.dropped == 1


class TestNdnOverDip:
    def test_interest_data_roundtrip(self):
        def producer_app(host, packet, port):
            digest = int.from_bytes(packet.header.locations[:4], "big")
            host.send_packet(build_data_packet(digest, b"content"), port=port)

        topo = Topology()
        consumer = topo.add(HostNode("c", topo.engine, topo.trace))
        r1 = topo.add(DipRouterNode("r1", topo.engine, topo.trace))
        r2 = topo.add(DipRouterNode("r2", topo.engine, topo.trace))
        producer = topo.add(
            HostNode("p", topo.engine, topo.trace, app=producer_app)
        )
        topo.connect("c", 0, "r1", 1)
        topo.connect("r1", 2, "r2", 1)
        topo.connect("r2", 2, "p", 0)
        install_name_route(r1.state, "/files", 2)
        install_name_route(r2.state, "/files", 2)
        consumer.send_packet(build_interest_packet("/files/report.pdf"))
        topo.run()
        assert len(consumer.inbox) == 1
        assert consumer.inbox[0][0].payload == b"content"
        # PIT state fully consumed on both routers
        assert len(r1.state.pit) == 0 and len(r2.state.pit) == 0

    def test_unsolicited_data_dropped(self):
        topo, src, routers, dst = line(1)
        src.send_packet(build_data_packet("/x", b"unsolicited"))
        topo.run()
        assert routers[0].stats.dropped == 1
        assert dst.stats.received == 0


class TestOptOverDip:
    def _setup(self, n_routers=3):
        topo, src, routers, dst = line(n_routers)
        session = negotiate_session(
            "src",
            "dst",
            [router.state.router_key for router in routers],
            RouterKey("dst"),
            nonce=b"it",
        )
        for position, router in enumerate(routers):
            router.state.opt_positions[session.session_id] = position
            router.state.default_port = 2
        dst.stack.state.opt_sessions[session.session_id] = session
        return topo, src, routers, dst, session

    def test_honest_path_verifies(self):
        topo, src, routers, dst, session = self._setup()
        src.send_packet(build_opt_packet(session, b"payload", timestamp=1))
        topo.run()
        assert len(dst.inbox) == 1
        _packet, result = dst.inbox[0]
        assert result.scratch["opt_report"].ok

    def test_mitm_payload_swap_rejected(self):
        topo, src, routers, dst, session = self._setup()
        original = routers[1].forward_frame

        def tamper(out_port, frame, in_port):
            from repro.netsim.messages import Frame

            bad = dataclasses.replace(frame.data, payload=b"swapped")
            original(out_port, Frame.dip(bad), in_port)

        routers[1].forward_frame = tamper
        src.send_packet(build_opt_packet(session, b"payload"))
        topo.run()
        assert len(dst.rejected) == 1 and not dst.inbox

    def test_routed_opt_composition(self):
        """OPT + IPv4 forwarding FNs in one header crosses the network."""
        topo, src, routers, dst, session = self._setup(2)
        for router in routers:
            router.state.default_port = None  # force FN-based forwarding
            router.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 2)
        packet = build_routed_opt_packet(
            session, dst=parse_ipv4("10.0.0.9"), src=parse_ipv4("10.9.9.9"),
            payload=b"routed",
        )
        src.send_packet(packet)
        topo.run()
        assert len(dst.inbox) == 1
        assert dst.inbox[0][1].scratch["opt_report"].ok


class TestNdnOptOverDip:
    def test_secure_content_delivery(self):
        """The derived protocol: interest up, verified data back."""
        topo = Topology()
        consumer = topo.add(HostNode("c", topo.engine, topo.trace))
        r1 = topo.add(DipRouterNode("r1", topo.engine, topo.trace))
        producer_box = {}

        def producer_app(host, packet, port):
            digest = int.from_bytes(packet.header.locations[:4], "big")
            host.send_packet(
                build_ndn_opt_data(
                    digest, producer_box["session"], b"secure content"
                ),
                port=port,
            )

        producer = topo.add(
            HostNode("p", topo.engine, topo.trace, app=producer_app)
        )
        topo.connect("c", 0, "r1", 1)
        topo.connect("r1", 2, "p", 0)
        topo.wire_neighbor_labels()
        install_name_route(r1.state, "/sec", 2)

        session = negotiate_session(
            "p", "c", [r1.state.router_key], RouterKey("c"), nonce=b"no"
        )
        producer_box["session"] = session
        r1.state.opt_positions[session.session_id] = 0
        consumer.stack.state.opt_sessions[session.session_id] = session

        consumer.send_packet(build_interest_packet("/sec/doc"))
        topo.run()
        assert len(consumer.inbox) == 1
        packet, result = consumer.inbox[0]
        assert packet.payload == b"secure content"
        assert result.scratch["opt_report"].ok


class TestXiaOverDip:
    def test_fallback_then_shortcut(self):
        cid = Xid.for_content(b"chunk")
        ad = Xid.from_name(XidType.AD, "ad")
        hid = Xid.from_name(XidType.HID, "server")
        dag = DagAddress.with_fallback(cid, [ad, hid])

        topo = Topology()
        src = topo.add(HostNode("src", topo.engine, topo.trace))
        core = topo.add(DipRouterNode("core", topo.engine, topo.trace))
        edge = topo.add(DipRouterNode("edge", topo.engine, topo.trace))
        topo.connect("src", 0, "core", 1)
        topo.connect("core", 2, "edge", 1)
        core.state.xia_table.add_route(ad, 2)
        edge.state.xia_table.add_local(ad)
        edge.state.xia_table.add_local(hid)
        edge.state.xia_table.add_local(cid)

        src.send_packet(build_xia_packet(dag, payload=b"GET"))
        topo.run()
        assert len(edge.local_inbox) == 1

    def test_unroutable_dag_dropped(self):
        dag = DagAddress.direct(Xid.for_content(b"nowhere"))
        topo, src, routers, dst = line(1)
        src.send_packet(build_xia_packet(dag))
        topo.run()
        assert routers[0].stats.dropped == 1
