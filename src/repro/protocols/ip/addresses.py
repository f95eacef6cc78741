"""IPv4 address parsing (from scratch).

Addresses are represented as plain unsigned integers throughout the
library (32-bit for IPv4, 128-bit for IPv6); :func:`parse_ipv4` reads
the dotted-quad notation the examples write.
"""

from __future__ import annotations

from repro.errors import ProtocolError


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer."""
    parts = text.split(".")
    if len(parts) != 4:
        raise ProtocolError(f"invalid IPv4 address {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise ProtocolError(f"invalid IPv4 octet {part!r} in {text!r}")
        octet = int(part)
        if octet > 255:
            raise ProtocolError(f"IPv4 octet {octet} out of range in {text!r}")
        value = (value << 8) | octet
    return value
