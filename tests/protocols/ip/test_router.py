"""Tests for the native IP router (the Figure 2 baseline)."""

from ipaddress import IPv6Address

import pytest

from repro.errors import RoutingError
from repro.protocols.ip.addresses import parse_ipv4
from repro.protocols.ip.ipv4 import IPv4Header
from repro.protocols.ip.ipv6 import IPv6Header
from repro.protocols.ip.router import IpRouter


@pytest.fixture
def router():
    r = IpRouter("r-test")
    r.add_route_v4(parse_ipv4("10.0.0.0"), 8, 1)
    r.add_route_v4(parse_ipv4("10.1.0.0"), 16, 2)
    r.add_route_v6(int(IPv6Address("2001:db8::")), 32, 3)
    return r


class TestForwardV4:
    def test_longest_prefix_wins(self, router):
        pkt = IPv4Header(src=0, dst=parse_ipv4("10.1.2.3"), ttl=5).encode()
        assert router.forward_v4(pkt).egress_port == 2

    def test_shorter_prefix_covers(self, router):
        pkt = IPv4Header(src=0, dst=parse_ipv4("10.9.9.9"), ttl=5).encode()
        assert router.forward_v4(pkt).egress_port == 1

    def test_ttl_decrement_and_rechecksum(self, router):
        pkt = IPv4Header(src=0, dst=parse_ipv4("10.1.2.3"), ttl=5).encode()
        out = router.forward_v4(pkt)
        header = IPv4Header.decode(out.packet)  # checksum must verify
        assert header.ttl == 4

    def test_payload_preserved(self, router):
        pkt = (
            IPv4Header(
                src=0, dst=parse_ipv4("10.1.2.3"), ttl=5, total_length=24
            ).encode()
            + b"DATA"
        )
        assert router.forward_v4(pkt).packet.endswith(b"DATA")

    def test_ttl_expiry_drops(self, router):
        pkt = IPv4Header(src=0, dst=parse_ipv4("10.1.2.3"), ttl=1).encode()
        result = router.forward_v4(pkt)
        assert result.dropped and "ttl" in result.reason

    def test_no_route_drops(self, router):
        pkt = IPv4Header(src=0, dst=parse_ipv4("9.9.9.9"), ttl=5).encode()
        result = router.forward_v4(pkt)
        assert result.dropped and "no route" in result.reason


class TestForwardV6:
    def test_forward(self, router):
        pkt = IPv6Header(src=0, dst=int(IPv6Address("2001:db8::99"))).encode()
        out = router.forward_v6(pkt)
        assert out.egress_port == 3
        assert IPv6Header.decode(out.packet).hop_limit == 63

    def test_hop_limit_expiry(self, router):
        pkt = IPv6Header(
            src=0, dst=int(IPv6Address("2001:db8::99")), hop_limit=1
        ).encode()
        assert router.forward_v6(pkt).dropped

    def test_no_route(self, router):
        pkt = IPv6Header(src=0, dst=int(IPv6Address("fe80::1"))).encode()
        assert router.forward_v6(pkt).dropped


class TestNextHopHelpers:
    def test_next_hop_v4(self, router):
        assert router.next_hop_v4(parse_ipv4("10.1.0.1")) == 2
        with pytest.raises(RoutingError):
            router.next_hop_v4(parse_ipv4("8.8.8.8"))

    def test_next_hop_v6(self, router):
        assert router.next_hop_v6(int(IPv6Address("2001:db8::1"))) == 3
        with pytest.raises(RoutingError):
            router.next_hop_v6(int(IPv6Address("fe80::1")))
