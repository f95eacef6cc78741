"""EPIC realized with DIP.

Two compositions, mirroring the OPT builders:

- the bare realization ``[F_epic (router), F_epic_ver (host)]`` with the
  EPIC header as the FN locations (rides the underlying path, like the
  paper's OPT packets);
- a routed composition prefixing the IPv4 forwarding FNs.

Header sizes at one hop: 6 + 2*6 + 44 = 62 bytes bare, 6 + 4*6 + 52 =
82 bytes routed -- notably smaller than OPT's 98 because EPIC's per-hop
fields are 32-bit truncated MACs.
"""

from __future__ import annotations

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.epic.header import EPIC_BASE_SIZE, HVF_SIZE
from repro.protocols.epic.packets import build_header
from repro.protocols.opt.session import OptSession


def epic_fns(hop_count: int, base_offset_bits: int = 0) -> tuple:
    """The EPIC FN pair, shifted by ``base_offset_bits``."""
    header_bits = (EPIC_BASE_SIZE + HVF_SIZE * hop_count) * 8
    return (
        FieldOperation(
            field_loc=base_offset_bits,
            field_len=header_bits,
            key=OperationKey.EPIC,
        ),
        FieldOperation(
            field_loc=base_offset_bits,
            field_len=header_bits,
            key=OperationKey.EPIC_VERIFY,
            tag=True,
        ),
    )


def build_epic_packet(
    session: OptSession,
    payload: bytes,
    timestamp: int = 0,
    counter: int = 0,
    hop_limit: int = 64,
    backend: str = "2em",
) -> DipPacket:
    """Bare EPIC-over-DIP packet (forwarding via the underlying path)."""
    epic_header = build_header(
        session, payload, timestamp=timestamp, counter=counter, backend=backend
    )
    header = DipHeader(
        fns=epic_fns(epic_header.hop_count),
        locations=epic_header.encode(),
        hop_limit=hop_limit,
    )
    return DipPacket(header=header, payload=payload)


def build_routed_epic_packet(
    session: OptSession,
    dst: int,
    src: int,
    payload: bytes,
    timestamp: int = 0,
    counter: int = 0,
    hop_limit: int = 64,
    backend: str = "2em",
) -> DipPacket:
    """EPIC composed with IPv4 forwarding."""
    epic_header = build_header(
        session, payload, timestamp=timestamp, counter=counter, backend=backend
    )
    address_bits = 64
    fns = (
        FieldOperation(field_loc=0, field_len=32, key=OperationKey.MATCH_32),
        FieldOperation(field_loc=32, field_len=32, key=OperationKey.SOURCE),
    ) + epic_fns(epic_header.hop_count, base_offset_bits=address_bits)
    header = DipHeader(
        fns=fns,
        locations=(
            dst.to_bytes(4, "big") + src.to_bytes(4, "big")
            + epic_header.encode()
        ),
        hop_limit=hop_limit,
    )
    return DipPacket(header=header, payload=payload)
