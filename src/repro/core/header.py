"""The DIP packet header (Figure 1 of the paper).

Three parts, in order on the wire:

1. **basic header** (6 bytes): next header (16 b), FN number (8 b),
   hop limit (8 b), packet parameter (16 b);
2. **FN definitions**: ``FN number`` triples of 6 bytes each;
3. **FN locations**: the raw field bytes the FNs operate on.

The packet parameter's lowest bit is the modular-parallelism flag and
its next ten bits carry the FN-locations length in bytes (Section 2.2);
the remaining five bits are reserved.  Because the triple structure is
fixed, the total header length is derivable:
``6 + 6 * fn_num + loc_len``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from repro.core.fn import FN_ENCODED_SIZE, FieldOperation
from repro.errors import (
    FieldRangeError,
    HeaderValueError,
    TruncatedHeaderError,
)
from repro.util.bitview import BitView

BASIC_HEADER_SIZE = 6
MAX_FN_COUNT = 255
MAX_LOC_LEN = (1 << 10) - 1  # ten bits of FN-locations length

# Next-header codes (what follows the DIP header).
NEXT_HEADER_NONE = 0
NEXT_HEADER_PAYLOAD = 1
NEXT_HEADER_TRANSPORT = 6
NEXT_HEADER_LEGACY_IPV4 = 0x0800
NEXT_HEADER_LEGACY_IPV6 = 0x86DD


def check_field_ranges(fns: Tuple[FieldOperation, ...], loc_len: int) -> None:
    """Raise :class:`FieldRangeError` for the first FN whose target
    field ends past a ``loc_len``-byte locations region."""
    total_bits = loc_len * 8
    for fn in fns:
        if fn.field_end > total_bits:
            raise FieldRangeError(
                f"{fn} exceeds the {total_bits}-bit FN locations region"
            )


@dataclass(frozen=True)
class PacketParameter:
    """The 16-bit packet parameter field.

    Parameters
    ----------
    parallel:
        Whether the operation modules may execute in parallel
        (modular parallelism, Section 2.2).
    loc_len:
        Length of the FN locations region in bytes (10 bits).
    reserved:
        The five reserved bits.
    """

    parallel: bool = False
    loc_len: int = 0
    reserved: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.loc_len <= MAX_LOC_LEN:
            raise HeaderValueError(
                f"FN locations length {self.loc_len} does not fit in 10 bits"
            )
        if not 0 <= self.reserved < 32:
            raise HeaderValueError("reserved bits do not fit in 5 bits")

    def encode(self) -> int:
        """Pack into the 16-bit wire value."""
        return (
            (self.reserved << 11)
            | (self.loc_len << 1)
            | (1 if self.parallel else 0)
        )

    @classmethod
    def decode(cls, value: int) -> "PacketParameter":
        """Unpack from the 16-bit wire value."""
        return cls(
            parallel=bool(value & 1),
            loc_len=(value >> 1) & MAX_LOC_LEN,
            reserved=(value >> 11) & 0x1F,
        )


@dataclass(frozen=True)
class DipHeader:
    """A complete DIP header.

    Parameters
    ----------
    fns:
        The FN definitions, in execution order.
    locations:
        The FN locations blob (target-field bytes).
    next_header:
        What follows the DIP header (payload/transport/legacy codes).
    hop_limit:
        Decremented per hop; packets expire at zero.
    parallel:
        The modular-parallelism flag.
    reserved:
        The packet parameter's reserved bits.
    """

    fns: Tuple[FieldOperation, ...] = ()
    locations: bytes = b""
    next_header: int = NEXT_HEADER_PAYLOAD
    hop_limit: int = 64
    parallel: bool = False
    reserved: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if len(self.fns) > MAX_FN_COUNT:
            raise HeaderValueError(
                f"{len(self.fns)} FNs exceed the 8-bit FN number"
            )
        if len(self.locations) > MAX_LOC_LEN:
            raise HeaderValueError(
                f"FN locations of {len(self.locations)} bytes exceed 10 bits"
            )
        if not 0 <= self.next_header < (1 << 16):
            raise HeaderValueError("next_header does not fit in 16 bits")
        if not 0 <= self.hop_limit < 256:
            raise HeaderValueError("hop_limit does not fit in 8 bits")
        object.__setattr__(self, "fns", tuple(self.fns))
        object.__setattr__(self, "locations", bytes(self.locations))

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def fn_num(self) -> int:
        """The FN number field."""
        return len(self.fns)

    @property
    def loc_len(self) -> int:
        """The FN locations length in bytes."""
        return len(self.locations)

    @property
    def header_length(self) -> int:
        """Total header bytes: basic + definitions + locations."""
        return BASIC_HEADER_SIZE + FN_ENCODED_SIZE * self.fn_num + self.loc_len

    def validate_field_ranges(self) -> None:
        """Ensure every FN's target field lies inside the locations blob.

        Host-tagged FNs are included: the locations region is shared.
        """
        check_field_ranges(self.fns, self.loc_len)

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize basic header, FN definitions, and locations."""
        parameter = PacketParameter(
            parallel=self.parallel, loc_len=self.loc_len, reserved=self.reserved
        )
        out = bytearray()
        out += self.next_header.to_bytes(2, "big")
        out.append(self.fn_num)
        out.append(self.hop_limit)
        out += parameter.encode().to_bytes(2, "big")
        for fn in self.fns:
            out += fn.encode()
        out += self.locations
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["DipHeader", int]:
        """Parse a header; returns (header, bytes consumed).

        Follows Algorithm 1 lines 1-3: basic header first (FN_Num and
        FN_LocLen), then the FN triples, then the locations.
        """
        if len(data) < BASIC_HEADER_SIZE:
            raise TruncatedHeaderError(
                f"DIP basic header needs {BASIC_HEADER_SIZE} bytes, "
                f"got {len(data)}"
            )
        next_header = int.from_bytes(data[0:2], "big")
        fn_num = data[2]
        hop_limit = data[3]
        parameter = PacketParameter.decode(int.from_bytes(data[4:6], "big"))

        offset = BASIC_HEADER_SIZE
        fns = []
        for _ in range(fn_num):
            fns.append(
                FieldOperation.decode(data[offset : offset + FN_ENCODED_SIZE])
            )
            offset += FN_ENCODED_SIZE
        if len(data) < offset:
            raise TruncatedHeaderError("truncated FN definitions")
        if len(data) < offset + parameter.loc_len:
            raise TruncatedHeaderError(
                f"FN locations need {parameter.loc_len} bytes, "
                f"only {len(data) - offset} present"
            )
        locations = bytes(data[offset : offset + parameter.loc_len])
        offset += parameter.loc_len
        header = cls(
            fns=tuple(fns),
            locations=locations,
            next_header=next_header,
            hop_limit=hop_limit,
            parallel=parameter.parallel,
            reserved=parameter.reserved,
        )
        return header, offset

    # ------------------------------------------------------------------
    # field access and functional updates
    # ------------------------------------------------------------------
    def locations_view(self) -> BitView:
        """A mutable bit-level view of a *copy* of the locations."""
        return BitView(self.locations)

    def with_hop_limit(self, hop_limit: int) -> "DipHeader":
        """Copy with a new hop limit."""
        return replace(self, hop_limit=hop_limit)

    def router_fns(self) -> Tuple[FieldOperation, ...]:
        """The FNs routers execute (tag == 0)."""
        return tuple(fn for fn in self.fns if not fn.tag)
