"""Dynamic packet state (CSFQ) realized with DIP.

The edge router estimates the flow's rate and stamps it as a 32-bit
label in the FN locations; core routers run ``F_dps`` against the
label.  Composed with IPv4 forwarding:

Layout: dst(32) || src(32) || rate label (32) -> 12-byte locations,
4 FN triples, 6 + 24 + 12 = 42-byte header.
"""

from __future__ import annotations

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.dps.csfq import RATE_LABEL_BITS, encode_rate_label

ADDRESS_BITS = 64
LABEL_OFFSET_BITS = ADDRESS_BITS


def dps_fns() -> tuple:
    """FN triples: forwarding + the core fair-queueing operation."""
    return (
        FieldOperation(field_loc=0, field_len=32, key=OperationKey.MATCH_32),
        FieldOperation(field_loc=32, field_len=32, key=OperationKey.SOURCE),
        FieldOperation(
            field_loc=LABEL_OFFSET_BITS,
            field_len=RATE_LABEL_BITS,
            key=OperationKey.DPS,
        ),
    )


def build_dps_packet(
    dst: int,
    src: int,
    rate_bps: float,
    payload: bytes = b"",
    hop_limit: int = 64,
) -> DipPacket:
    """Edge-side construction: stamp the flow's estimated rate."""
    label = encode_rate_label(rate_bps)
    header = DipHeader(
        fns=dps_fns(),
        locations=(
            dst.to_bytes(4, "big")
            + src.to_bytes(4, "big")
            + label.to_bytes(4, "big")
        ),
        hop_limit=hop_limit,
    )
    return DipPacket(header=header, payload=payload)
