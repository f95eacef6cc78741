"""Small byte-string helpers used across the library."""

from __future__ import annotations


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
