"""Shared low-level utilities (bit-level buffers, byte helpers)."""

from repro.util.bitview import BitView
from repro.util.bytesutil import hexdump

__all__ = [
    "BitView",
    "hexdump",
]
