"""Small byte-string helpers used across the library."""

from __future__ import annotations


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode a non-negative integer as ``length`` big-endian bytes."""
    if value < 0:
        raise ValueError("value must be non-negative")
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Decode big-endian bytes as a non-negative integer."""
    return int.from_bytes(data, "big")


def hexdump(data: bytes, width: int = 16) -> str:
    """Render bytes as a classic offset/hex/ASCII dump for debugging."""
    lines = []
    for offset in range(0, len(data), width):
        chunk = data[offset : offset + width]
        hex_part = " ".join(f"{byte:02x}" for byte in chunk)
        ascii_part = "".join(
            chr(byte) if 32 <= byte < 127 else "." for byte in chunk
        )
        lines.append(f"{offset:08x}  {hex_part:<{width * 3}} {ascii_part}")
    return "\n".join(lines)
