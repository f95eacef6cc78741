"""Strip/rewrap border routers over the simulator (Section 2.4,
backward compatibility -- as opposed to the tunnel mode).
"""

from repro.core.compat import wrap_legacy_packet
from repro.netsim import (
    BorderRouterNode,
    HostNode,
    LegacyRouterNode,
    Topology,
)
from repro.netsim.messages import KIND_IPV4, Frame
from repro.protocols.ip.addresses import parse_ipv4
from repro.protocols.ip.ipv4 import IPv4Header

DST = parse_ipv4("10.1.2.3")
SRC = parse_ipv4("172.16.0.1")


def wrapped_packet(payload=b"DATA"):
    inner = IPv4Header(
        src=SRC, dst=DST, total_length=20 + len(payload), ttl=32
    ).encode() + payload
    return wrap_legacy_packet(inner, "ipv4")


def build_network():
    """host-a - border-a === legacy === border-b - host-b."""
    topo = Topology()
    host_a = topo.add(HostNode("host-a", topo.engine, topo.trace))
    border_a = topo.add(BorderRouterNode("border-a", topo.engine, trace=topo.trace))
    legacy = topo.add(LegacyRouterNode("legacy", topo.engine, topo.trace))
    border_b = topo.add(BorderRouterNode("border-b", topo.engine, trace=topo.trace))
    host_b = topo.add(HostNode("host-b", topo.engine, topo.trace))
    topo.connect("host-a", 0, "border-a", 1)
    topo.connect("border-a", 2, "legacy", 1)
    topo.connect("legacy", 2, "border-b", 2)
    topo.connect("border-b", 1, "host-b", 0)

    template = wrapped_packet()
    border_a.strip_templates[2] = template
    border_b.strip_templates[2] = template
    # DIP-side forwarding on the embedded destination address
    border_a.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 2)
    border_b.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 1)
    # legacy core routes the bare IPv4 packet itself
    legacy.router.add_route_v4(parse_ipv4("10.0.0.0"), 8, 2)
    return topo, host_a, border_a, legacy, border_b, host_b


class TestStripBorder:
    def test_end_to_end_across_stripped_core(self):
        topo, host_a, border_a, legacy, border_b, host_b = build_network()
        host_a.send_packet(wrapped_packet(b"HELLO"))
        topo.run()
        assert len(topo.trace.of_kind("strip")) == 1
        assert len(topo.trace.of_kind("rewrap")) == 1
        assert legacy.stats.forwarded == 1
        assert host_b.stats.received == 1
        packet, _result = host_b.inbox[0]
        # the re-wrapped packet still carries the DIP framing and the
        # original payload
        assert packet.header.fn_num == 2
        assert packet.payload == b"HELLO"

    def test_legacy_core_routes_on_inner_header(self):
        """The legacy router made a real routing decision (and
        decremented the inner TTL)."""
        topo, host_a, border_a, legacy, border_b, host_b = build_network()
        host_a.send_packet(wrapped_packet())
        topo.run()
        packet, _result = host_b.inbox[0]
        inner = IPv4Header.decode(packet.header.locations)
        assert inner.ttl < 32  # decremented on the legacy hop

    def test_non_embedded_dip_not_stripped(self):
        """A native DIP packet out a strip port falls through to plain
        forwarding (and dies at the legacy router), never corrupted."""
        topo, host_a, border_a, legacy, border_b, host_b = build_network()
        from repro.realize.ip import build_ipv4_packet

        host_a.send_packet(build_ipv4_packet(DST, SRC))
        topo.run()
        assert legacy.stats.dropped == 1  # legacy can't parse raw DIP
        assert host_b.stats.received == 0

    def test_plain_ipv4_on_strip_port_rewrapped(self):
        """Even legacy-originated traffic entering a DIP domain gets
        the framing added (the paper's inbound border rule)."""
        topo, host_a, border_a, legacy, border_b, host_b = build_network()
        raw = IPv4Header(src=SRC, dst=DST, ttl=9).encode()
        legacy.router.add_route_v4(DST, 32, 2)
        # inject directly at the legacy router toward border-b
        legacy.receive(Frame.legacy(KIND_IPV4, raw), port=1)
        topo.run()
        assert host_b.stats.received == 1
        packet, _ = host_b.inbox[0]
        assert packet.header.fn_num == 2  # framing restored
