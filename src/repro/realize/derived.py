"""NDN+OPT: the derived secure content delivery protocol (Section 3).

This is DIP's headline composition: the FN modules of NDN (``F_FIB`` /
``F_PIT``) and OPT (``F_parm`` / ``F_MAC`` / ``F_mark`` / ``F_ver``)
combined in one header, adding source validation and path
authentication to content delivery.  The 32-bit content name leads the
FN locations and the OPT header follows at bit 32:

======  ============================  ==========================
bytes   FN locations content          FNs
======  ============================  ==========================
0-3     32-bit content name           F_FIB (interest) / F_PIT (data)
4-71    OPT header (1 hop, 68 B)      F_parm, F_MAC, F_mark, F_ver
======  ============================  ==========================

Header size: 6 + 5*6 + 72 = 108 bytes (Table 2, "NDN+OPT forwarding").
"""

from __future__ import annotations

from typing import Union

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.ndn.names import Name
from repro.protocols.opt.session import OptSession
from repro.protocols.opt.source import initialize_header
from repro.realize.ndn import name_digest
from repro.realize.opt import opt_fns

NAME_BITS = 32


def _build(
    name: Union[Name, int, str],
    session: OptSession,
    payload: bytes,
    content_key: OperationKey,
    timestamp: int,
    hop_limit: int,
    parallel: bool,
    backend: str,
) -> DipPacket:
    digest = name_digest(name)
    opt_header = initialize_header(
        session, payload, timestamp=timestamp, backend=backend
    )
    fns = (
        FieldOperation(field_loc=0, field_len=NAME_BITS, key=content_key),
    ) + opt_fns(opt_header.hop_count, base_offset_bits=NAME_BITS)
    header = DipHeader(
        fns=fns,
        locations=digest.to_bytes(4, "big") + opt_header.encode(),
        hop_limit=hop_limit,
        parallel=parallel,
    )
    return DipPacket(header=header, payload=payload)


def build_ndn_opt_interest(
    name: Union[Name, int, str],
    session: OptSession,
    payload: bytes = b"",
    timestamp: int = 0,
    hop_limit: int = 64,
    parallel: bool = False,
    backend: str = "2em",
) -> DipPacket:
    """Secure interest: F_FIB + the OPT chain."""
    return _build(
        name, session, payload, OperationKey.FIB,
        timestamp, hop_limit, parallel, backend,
    )


def build_ndn_opt_data(
    name: Union[Name, int, str],
    session: OptSession,
    content: bytes = b"",
    timestamp: int = 0,
    hop_limit: int = 64,
    parallel: bool = False,
    backend: str = "2em",
) -> DipPacket:
    """Secure data: F_PIT + the OPT chain."""
    return _build(
        name, session, content, OperationKey.PIT,
        timestamp, hop_limit, parallel, backend,
    )
