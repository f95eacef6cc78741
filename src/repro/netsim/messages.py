"""Frames exchanged between simulated nodes.

A frame wraps whatever rides the link -- a DIP packet, a raw legacy IP
packet, or a control message -- with a kind discriminator and its wire
size (for transmission-delay computation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

KIND_DIP = "dip"
KIND_IPV4 = "ipv4"
KIND_IPV6 = "ipv6"
KIND_CONTROL = "control"


@dataclass(frozen=True)
class Frame:
    """One link-layer unit.

    Parameters
    ----------
    kind:
        One of ``dip`` / ``ipv4`` / ``ipv6`` / ``control``.
    data:
        The payload object: for ``dip`` a
        :class:`~repro.core.packet.DipPacket` or its wire bytes (a
        fabric boundary hands routers the bytes it received), raw
        bytes for legacy kinds, or a control message object.
    size:
        Wire size in bytes.
    """

    kind: str
    data: Any
    size: int

    @classmethod
    def dip(cls, packet) -> "Frame":
        """Wrap a DIP packet."""
        return cls(kind=KIND_DIP, data=packet, size=packet.size)

    @classmethod
    def legacy(cls, kind: str, raw: bytes) -> "Frame":
        """Wrap a raw legacy IP packet."""
        return cls(kind=kind, data=bytes(raw), size=len(raw))

    @classmethod
    def control(cls, message, size: int = 32) -> "Frame":
        """Wrap a control-plane message."""
        return cls(kind=KIND_CONTROL, data=message, size=size)
