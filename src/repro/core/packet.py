"""Full DIP packets: header plus payload."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.header import DipHeader


@dataclass(frozen=True)
class DipPacket:
    """A DIP packet.

    Parameters
    ----------
    header:
        The DIP header (basic header + FN definitions + FN locations).
    payload:
        Everything after the header.
    """

    header: DipHeader
    payload: bytes = b""

    def __post_init__(self) -> None:
        object.__setattr__(self, "payload", bytes(self.payload))

    @property
    def size(self) -> int:
        """Total packet size in bytes."""
        return self.header.header_length + len(self.payload)

    def encode(self) -> bytes:
        """Serialize header and payload."""
        return self.header.encode() + self.payload

    @classmethod
    def decode(cls, data: bytes) -> "DipPacket":
        """Parse a packet (the header knows its own length)."""
        header, consumed = DipHeader.decode(data)
        return cls(header=header, payload=bytes(data[consumed:]))
