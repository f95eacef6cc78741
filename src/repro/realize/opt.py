"""OPT realized with DIP (Section 3, "OPT").

The OPT header sits in the FN locations and four FNs customize the
per-hop processing (triples exactly as in the paper, for a 1-hop path):

- ``(loc 128, len 128, key F_parm)`` -- derive the dynamic key from the
  SessionID and load the previous validator's label;
- ``(loc 0, len 416, key F_MAC)`` -- MAC the pre-OPV region and write
  this hop's OPV;
- ``(loc 288, len 128, key F_mark)`` -- chain the PVF;
- ``(loc 0, len 544, key F_ver, tag=host)`` -- destination
  verification.

With the 68-byte 1-hop OPT header this gives Table 2's 98-byte "OPT
forwarding" row.  Longer paths grow the locations region by 16 bytes
per hop and widen the F_ver field accordingly (ABL-HOPS ablation).
"""

from __future__ import annotations

from typing import Tuple

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.opt.header import OptHeader
from repro.protocols.opt.session import OptSession
from repro.protocols.opt.source import initialize_header

MAC_INPUT_BITS = 416
PVF_OFFSET_BITS = 288
SESSION_OFFSET_BITS = 128
OPV_BITS = 128


def opt_fns(hop_count: int, base_offset_bits: int = 0) -> Tuple[FieldOperation, ...]:
    """The four OPT FN triples, shifted by ``base_offset_bits``.

    ``base_offset_bits`` lets derived protocols embed the OPT header
    after other fields (NDN+OPT puts the 32-bit content name first).
    """
    base = base_offset_bits
    verify_bits = MAC_INPUT_BITS + OPV_BITS * hop_count
    return (
        FieldOperation(
            field_loc=base + SESSION_OFFSET_BITS,
            field_len=128,
            key=OperationKey.PARM,
        ),
        FieldOperation(
            field_loc=base, field_len=MAC_INPUT_BITS, key=OperationKey.MAC
        ),
        FieldOperation(
            field_loc=base + PVF_OFFSET_BITS,
            field_len=128,
            key=OperationKey.MARK,
        ),
        FieldOperation(
            field_loc=base,
            field_len=verify_bits,
            key=OperationKey.VERIFY,
            tag=True,
        ),
    )


def build_opt_header_from(
    opt_header: OptHeader, hop_limit: int = 64, parallel: bool = False
) -> DipHeader:
    """Wrap an already-initialized OPT header into a DIP header."""
    return DipHeader(
        fns=opt_fns(opt_header.hop_count),
        locations=opt_header.encode(),
        hop_limit=hop_limit,
        parallel=parallel,
    )


def build_opt_packet(
    session: OptSession,
    payload: bytes,
    timestamp: int = 0,
    hop_limit: int = 64,
    parallel: bool = False,
    backend: str = "2em",
) -> DipPacket:
    """Source-side construction of a complete DIP OPT packet."""
    opt_header = initialize_header(
        session, payload, timestamp=timestamp, backend=backend
    )
    return DipPacket(
        header=build_opt_header_from(opt_header, hop_limit, parallel),
        payload=payload,
    )


def build_routed_opt_packet(
    session: OptSession,
    dst: int,
    src: int,
    payload: bytes,
    timestamp: int = 0,
    hop_limit: int = 64,
    parallel: bool = False,
    backend: str = "2em",
) -> DipPacket:
    """OPT composed with IPv4 forwarding ("OPT in the IP network").

    The paper's pure OPT realization assumes a path-aware substrate
    (SCION); on an IP fabric the natural DIP composition adds the
    32-bit address match and source FNs in front, with the OPT header
    following the two addresses (another example of FN composability).
    """
    opt_header = initialize_header(
        session, payload, timestamp=timestamp, backend=backend
    )
    address_bits = 64  # dst(32) || src(32)
    fns = (
        FieldOperation(field_loc=0, field_len=32, key=OperationKey.MATCH_32),
        FieldOperation(field_loc=32, field_len=32, key=OperationKey.SOURCE),
    ) + opt_fns(opt_header.hop_count, base_offset_bits=address_bits)
    header = DipHeader(
        fns=fns,
        locations=(
            dst.to_bytes(4, "big") + src.to_bytes(4, "big") + opt_header.encode()
        ),
        hop_limit=hop_limit,
        parallel=parallel,
    )
    return DipPacket(header=header, payload=payload)
