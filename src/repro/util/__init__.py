"""Shared low-level utilities (bit-level buffers, byte helpers)."""

from repro.util.bitview import BitView
from repro.util.bytesutil import (
    bytes_to_int,
    hexdump,
    int_to_bytes,
)

__all__ = [
    "BitView",
    "bytes_to_int",
    "int_to_bytes",
    "hexdump",
]
