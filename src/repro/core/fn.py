"""The Field Operation (FN) primitive.

An FN is the paper's L3 function core: a *target field* (a bit range in
the packet's FN-locations region) plus an *operation* to apply to it.
On the wire an FN is a fixed triple -- field location, field length,
operation key -- and the key's most significant bit is the *tag*
selecting router (0) or host (1) execution (Section 2.2).

Wire layout of one FN definition (6 bytes):

=================  ====  =======================================
field              bits  meaning
=================  ====  =======================================
field location     16    bit offset into the FN locations region
field length       16    bit length of the target field
tag                1     1 = host operation (routers skip it)
operation key      15    selects the operation module (Table 1)
=================  ====  =======================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from repro.errors import HeaderValueError, TruncatedHeaderError

FN_ENCODED_SIZE = 6  # bytes per FN definition triple

_MAX_16 = (1 << 16) - 1
_MAX_KEY = (1 << 15) - 1


class OperationKey(IntEnum):
    """Operation keys of Table 1 plus the extensions discussed in the text."""

    MATCH_32 = 1        # 32-bit address match
    MATCH_128 = 2       # 128-bit address match
    SOURCE = 3          # source address
    FIB = 4             # forwarding information base match
    PIT = 5             # pending interest table match
    PARM = 6            # load parameters
    MAC = 7             # calculate MAC
    MARK = 8            # mark update
    VERIFY = 9          # destination verification
    DAG = 10            # parse the directed acyclic graph
    INTENT = 11         # handle intent
    # Extensions the paper discusses but does not number:
    PASS = 12           # source label verification (Section 2.4 security)
    TELEMETRY = 13      # in-band telemetry (Section 5 opportunities)
    CONG_MARK = 14      # NetFence-style congestion stamping (intro)
    POLICE = 15         # NetFence-style AIMD access policing (intro)
    DPS = 16            # dynamic packet state / CSFQ (Section 5)
    EPIC = 17           # EPIC per-hop verify-and-spend (intro)
    EPIC_VERIFY = 18    # EPIC destination validation (host op)
    TELEMETRY_ARRAY = 19  # INT-MD-style per-hop metadata slots
    KEYSETUP = 20       # in-band key negotiation (footnote 3)


@dataclass(frozen=True)
class FieldOperation:
    """One FN: where to read/write, and what to do there.

    Parameters
    ----------
    field_loc:
        Bit offset of the target field inside the FN locations region.
    field_len:
        Bit length of the target field.
    key:
        Operation key (Table 1).
    tag:
        True when the operation is for the host; routers skip it
        (Algorithm 1, lines 5-7).
    """

    field_loc: int
    field_len: int
    key: int
    tag: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.field_loc <= _MAX_16:
            raise HeaderValueError(
                f"field location {self.field_loc} does not fit in 16 bits"
            )
        if not 0 <= self.field_len <= _MAX_16:
            raise HeaderValueError(
                f"field length {self.field_len} does not fit in 16 bits"
            )
        if not 0 <= self.key <= _MAX_KEY:
            raise HeaderValueError(
                f"operation key {self.key} does not fit in 15 bits"
            )

    @property
    def field_end(self) -> int:
        """One past the last bit of the target field."""
        return self.field_loc + self.field_len

    def overlaps(self, other: "FieldOperation") -> bool:
        """True when the two FNs' target fields share any bit.

        Used by the modular-parallelism check: FNs whose fields overlap
        must run sequentially.  Zero-length fields touch no bits and
        never overlap.
        """
        if self.field_len == 0 or other.field_len == 0:
            return False
        return self.field_loc < other.field_end and other.field_loc < self.field_end

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the 6-byte triple."""
        key_field = (0x8000 if self.tag else 0) | self.key
        return (
            self.field_loc.to_bytes(2, "big")
            + self.field_len.to_bytes(2, "big")
            + key_field.to_bytes(2, "big")
        )

    @classmethod
    def decode(cls, data: bytes) -> "FieldOperation":
        """Parse a 6-byte triple."""
        if len(data) < FN_ENCODED_SIZE:
            raise TruncatedHeaderError(
                f"FN triple needs {FN_ENCODED_SIZE} bytes, got {len(data)}"
            )
        key_field = int.from_bytes(data[4:6], "big")
        return cls(
            field_loc=int.from_bytes(data[0:2], "big"),
            field_len=int.from_bytes(data[2:4], "big"),
            key=key_field & _MAX_KEY,
            tag=bool(key_field & 0x8000),
        )

    def __str__(self) -> str:
        try:
            name = OperationKey(self.key).name
        except ValueError:
            name = f"key{self.key}"
        who = "host" if self.tag else "router"
        return f"FN({name}@{who}, loc={self.field_loc}, len={self.field_len})"
