"""NDN realized with DIP (Section 3, "NDN").

The packet processing of NDN is abstracted into ``F_FIB`` and
``F_PIT``; the 32-bit content name (Section 4.1) sits in the FN
locations:

- interest packets carry ``(loc 0, len 32, key F_FIB)``;
- data packets carry ``(loc 0, len 32, key F_PIT)``.

Either way the header is 6 + 6 + 4 = 16 bytes (Table 2, "NDN
forwarding").

``with_passport=True`` prepends the Section 2.4 source-label check
(``F_pass``) plus its 32-byte label record, for the content-poisoning
defense scenario.
"""

from __future__ import annotations

from typing import Union

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.ndn.names import Name

PASS_RECORD_BYTES = 32  # 128-bit label + 128-bit tag


def install_name_route(state, name: Union[Name, str], port: int) -> None:
    """Install a content route on a node's digest FIB.

    Single-component prefixes (``/seu``) install 16-bit LPM routes
    covering everything under them; full names install exact entries.
    """
    parsed = Name.parse(name) if isinstance(name, str) else name
    prefix, prefix_len = parsed.digest_route()
    state.name_fib_digest.insert(prefix, prefix_len, port)


def name_digest(name: Union[Name, int, str]) -> int:
    """Normalize a name / URI / raw digest into the 32-bit digest."""
    if isinstance(name, Name):
        return name.digest32()
    if isinstance(name, str):
        return Name.parse(name).digest32()
    if not 0 <= name < (1 << 32):
        raise ValueError(f"digest {name} does not fit in 32 bits")
    return name


def _ndn_header(
    name: Union[Name, int, str],
    key: OperationKey,
    hop_limit: int,
    with_passport: bool,
    label: bytes,
    tag: bytes,
) -> DipHeader:
    digest = name_digest(name)
    locations = digest.to_bytes(4, "big")
    fns = [FieldOperation(field_loc=0, field_len=32, key=key)]
    if with_passport:
        fns.insert(
            0,
            FieldOperation(
                field_loc=32, field_len=256, key=OperationKey.PASS
            ),
        )
        if len(label) != 16 or len(tag) != 16:
            raise ValueError("passport label and tag must be 16 bytes each")
        locations += label + tag
    return DipHeader(fns=tuple(fns), locations=locations, hop_limit=hop_limit)


def build_interest_header(
    name: Union[Name, int, str],
    hop_limit: int = 64,
    with_passport: bool = False,
    label: bytes = b"",
    tag: bytes = b"",
) -> DipHeader:
    """DIP header for an NDN interest (16 bytes without passport)."""
    return _ndn_header(
        name, OperationKey.FIB, hop_limit, with_passport, label, tag
    )


def build_data_header(
    name: Union[Name, int, str],
    hop_limit: int = 64,
    with_passport: bool = False,
    label: bytes = b"",
    tag: bytes = b"",
) -> DipHeader:
    """DIP header for an NDN data packet (16 bytes without passport)."""
    return _ndn_header(
        name, OperationKey.PIT, hop_limit, with_passport, label, tag
    )


def build_interest_packet(
    name: Union[Name, int, str], payload: bytes = b"", hop_limit: int = 64
) -> DipPacket:
    """A complete DIP NDN interest packet."""
    return DipPacket(header=build_interest_header(name, hop_limit), payload=payload)


def build_data_packet(
    name: Union[Name, int, str], content: bytes = b"", hop_limit: int = 64
) -> DipPacket:
    """A complete DIP NDN data packet carrying ``content`` as payload."""
    return DipPacket(header=build_data_header(name, hop_limit), payload=content)
