"""Arbitrary bit-range access over a mutable byte buffer.

The DIP header addresses target fields by *bit* location and *bit*
length (Figure 1 of the paper), so every operation module needs to read
and write bit ranges that are not byte aligned.  :class:`BitView` is the
single place in the library where that arithmetic lives.

Bits are numbered MSB-first within the buffer: bit 0 is the most
significant bit of byte 0, matching network diagrams where the leftmost
bit of the wire format is bit 0.
"""

from __future__ import annotations

from repro.errors import FieldRangeError


class BitView:
    """A mutable view of a byte buffer addressable at bit granularity.

    Parameters
    ----------
    data:
        Initial contents.  The buffer is copied, so the caller's bytes
        are never mutated.

    Examples
    --------
    >>> view = BitView(bytes(4))
    >>> view.set_uint(4, 8, 0xAB)
    >>> hex(view.get_uint(4, 8))
    '0xab'
    """

    __slots__ = ("_buf",)

    def __init__(self, data: bytes = b"") -> None:
        self._buf = bytearray(data)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, bit_length: int) -> "BitView":
        """Return an all-zero view able to hold ``bit_length`` bits."""
        if bit_length < 0:
            raise ValueError("bit_length must be non-negative")
        return cls(bytes((bit_length + 7) // 8))

    # ------------------------------------------------------------------
    # size
    # ------------------------------------------------------------------
    @property
    def bit_length(self) -> int:
        """Total number of addressable bits."""
        return len(self._buf) * 8

    @property
    def byte_length(self) -> int:
        """Total number of bytes in the backing buffer."""
        return len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitView):
            return self._buf == other._buf
        if isinstance(other, (bytes, bytearray)):
            return self._buf == other
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - views are mutable
        raise TypeError("BitView is mutable and unhashable")

    def __repr__(self) -> str:
        preview = bytes(self._buf[:8]).hex()
        suffix = "..." if len(self._buf) > 8 else ""
        return f"BitView({len(self._buf)} bytes: {preview}{suffix})"

    # ------------------------------------------------------------------
    # range checking
    # ------------------------------------------------------------------
    def _check_range(self, bit_offset: int, bit_count: int) -> None:
        if bit_offset < 0 or bit_count < 0:
            raise FieldRangeError(
                f"negative bit range ({bit_offset}, {bit_count})"
            )
        if bit_offset + bit_count > self.bit_length:
            raise FieldRangeError(
                f"bit range [{bit_offset}, {bit_offset + bit_count}) exceeds "
                f"buffer of {self.bit_length} bits"
            )

    # ------------------------------------------------------------------
    # unsigned integer access
    # ------------------------------------------------------------------
    def get_uint(self, bit_offset: int, bit_count: int) -> int:
        """Read ``bit_count`` bits at ``bit_offset`` as a big-endian uint."""
        if (
            bit_offset >= 0
            and bit_count >= 0
            and not (bit_offset | bit_count) & 7
            and bit_offset + bit_count <= len(self._buf) * 8
        ):
            # Byte-aligned fast path: most realizations use whole-byte
            # fields, and this is the hottest call in packet forwarding.
            start = bit_offset >> 3
            return int.from_bytes(
                self._buf[start : start + (bit_count >> 3)], "big"
            )
        self._check_range(bit_offset, bit_count)
        if bit_count == 0:
            return 0
        first_byte = bit_offset // 8
        last_byte = (bit_offset + bit_count - 1) // 8
        chunk = int.from_bytes(self._buf[first_byte : last_byte + 1], "big")
        chunk_bits = (last_byte - first_byte + 1) * 8
        right_pad = chunk_bits - (bit_offset % 8) - bit_count
        return (chunk >> right_pad) & ((1 << bit_count) - 1)

    def set_uint(self, bit_offset: int, bit_count: int, value: int) -> None:
        """Write ``value`` into ``bit_count`` bits at ``bit_offset``."""
        if (
            bit_offset >= 0
            and bit_count > 0
            and value >= 0
            and not (bit_offset | bit_count) & 7
            and bit_offset + bit_count <= len(self._buf) * 8
            and not value >> bit_count
        ):
            # Byte-aligned fast path (see get_uint).
            start = bit_offset >> 3
            self._buf[start : start + (bit_count >> 3)] = value.to_bytes(
                bit_count >> 3, "big"
            )
            return
        self._check_range(bit_offset, bit_count)
        if value < 0:
            raise ValueError("value must be non-negative")
        if bit_count == 0:
            if value:
                raise ValueError("cannot store a non-zero value in 0 bits")
            return
        if value >> bit_count:
            raise ValueError(
                f"value {value:#x} does not fit in {bit_count} bits"
            )
        first_byte = bit_offset // 8
        last_byte = (bit_offset + bit_count - 1) // 8
        chunk_bits = (last_byte - first_byte + 1) * 8
        right_pad = chunk_bits - (bit_offset % 8) - bit_count
        mask = ((1 << bit_count) - 1) << right_pad
        chunk = int.from_bytes(self._buf[first_byte : last_byte + 1], "big")
        chunk = (chunk & ~mask) | (value << right_pad)
        self._buf[first_byte : last_byte + 1] = chunk.to_bytes(
            chunk_bits // 8, "big"
        )

    # ------------------------------------------------------------------
    # byte-string access
    # ------------------------------------------------------------------
    def get_bits(self, bit_offset: int, bit_count: int) -> bytes:
        """Read a bit range as left-aligned bytes (zero padded on the right)."""
        value = self.get_uint(bit_offset, bit_count)
        nbytes = (bit_count + 7) // 8
        pad = nbytes * 8 - bit_count
        return (value << pad).to_bytes(nbytes, "big") if nbytes else b""

    def set_bits(self, bit_offset: int, bit_count: int, data: bytes) -> None:
        """Write left-aligned bytes into a bit range.

        ``data`` must hold at least ``bit_count`` bits; surplus low-order
        bits in the final byte are ignored, mirroring :meth:`get_bits`.
        """
        nbytes = (bit_count + 7) // 8
        if len(data) < nbytes:
            raise FieldRangeError(
                f"{len(data)} bytes cannot fill a {bit_count}-bit field"
            )
        pad = nbytes * 8 - bit_count
        value = int.from_bytes(data[:nbytes], "big") >> pad
        self.set_uint(bit_offset, bit_count, value)

    # ------------------------------------------------------------------
    # whole-buffer access
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Return the backing buffer as immutable bytes."""
        return bytes(self._buf)

    def extend(self, extra_bytes: int) -> None:
        """Grow the buffer by ``extra_bytes`` zero bytes."""
        if extra_bytes < 0:
            raise ValueError("extra_bytes must be non-negative")
        self._buf.extend(bytes(extra_bytes))
