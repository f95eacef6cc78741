"""Minimal pcap I/O for fabric captures.

Classic libpcap format only (the 24-byte global header with magic
``0xA1B2C3D4``, one 16-byte record header per packet) -- enough to
write a golden traffic schedule out for inspection with standard
tooling (``repro fabric --pcap-out``) and to read such a file back.  Both byte orders are read;
microsecond and nanosecond magics are honoured.  Writing always
produces little-endian microsecond files with ``linktype``
``LINKTYPE_USER0`` (147): DIP is not a registered link type, so the
payload bytes are the raw DIP wire encoding.

No external dependencies -- :mod:`struct` over plain files.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from repro.errors import FabricError

MAGIC_MICRO = 0xA1B2C3D4
MAGIC_NANO = 0xA1B23C4D
LINKTYPE_USER0 = 147

_GLOBAL = struct.Struct("<IHHiIII")
_RECORD = struct.Struct("<IIII")


def write_pcap(
    path: str,
    packets: Iterable[Tuple[float, bytes]],
    linktype: int = LINKTYPE_USER0,
    snaplen: int = 65535,
) -> int:
    """Write ``(timestamp_seconds, payload)`` pairs; returns the count."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(
            _GLOBAL.pack(MAGIC_MICRO, 2, 4, 0, 0, snaplen, linktype)
        )
        for when, payload in packets:
            if when < 0:
                raise FabricError(f"pcap timestamp {when} is negative")
            seconds = int(when)
            micros = int(round((when - seconds) * 1_000_000))
            if micros == 1_000_000:  # rounding carried into the next second
                seconds += 1
                micros = 0
            fh.write(
                _RECORD.pack(seconds, micros, len(payload), len(payload))
            )
            fh.write(payload)
            count += 1
    return count


def read_pcap(path: str) -> List[Tuple[float, bytes]]:
    """Read every record as ``(timestamp_seconds, payload)``."""
    with open(path, "rb") as fh:
        head = fh.read(_GLOBAL.size)
        if len(head) < _GLOBAL.size:
            raise FabricError(f"{path}: truncated pcap global header")
        magic_le = struct.unpack("<I", head[:4])[0]
        magic_be = struct.unpack(">I", head[:4])[0]
        if magic_le in (MAGIC_MICRO, MAGIC_NANO):
            endian, magic = "<", magic_le
        elif magic_be in (MAGIC_MICRO, MAGIC_NANO):
            endian, magic = ">", magic_be
        else:
            raise FabricError(f"{path}: not a pcap file (magic {head[:4]!r})")
        tick = 1e-9 if magic == MAGIC_NANO else 1e-6
        record = struct.Struct(endian + "IIII")
        out: List[Tuple[float, bytes]] = []
        while True:
            header = fh.read(record.size)
            if not header:
                break
            if len(header) < record.size:
                raise FabricError(f"{path}: truncated pcap record header")
            seconds, fraction, captured, _original = record.unpack(header)
            payload = fh.read(captured)
            if len(payload) < captured:
                raise FabricError(f"{path}: truncated pcap record body")
            out.append((seconds + fraction * tick, payload))
    return out
