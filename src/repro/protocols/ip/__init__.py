"""Canonical IPv4/IPv6 forwarding substrate (the Figure 2 baseline)."""

from repro.protocols.ip.addresses import parse_ipv4
from repro.protocols.ip.fib import LpmTable
from repro.protocols.ip.ipv4 import IPV4_HEADER_SIZE, IPv4Header
from repro.protocols.ip.ipv6 import IPV6_HEADER_SIZE, IPv6Header
from repro.protocols.ip.router import IpRouter

__all__ = [
    "parse_ipv4",
    "LpmTable",
    "IPv4Header",
    "IPv6Header",
    "IPV4_HEADER_SIZE",
    "IPV6_HEADER_SIZE",
    "IpRouter",
]
