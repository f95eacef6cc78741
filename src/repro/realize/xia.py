"""XIA realized with DIP (Section 3, "XIA").

"We set the header of XIA in the FN locations and use these two
operation modules [F_DAG, F_intent] to parse the directed acyclic graph
and handle the intent."  Both FNs cover the whole embedded XIA header:
F_DAG parses and advances through locally-owned DAG nodes, F_intent
decides delivery or picks the fallback edge to forward along.
"""

from __future__ import annotations

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.protocols.xia.dag import DagAddress
from repro.protocols.xia.router import XiaHeader


def build_xia_header(
    xia_header: XiaHeader, hop_limit: int = 64, parallel: bool = False
) -> DipHeader:
    """Wrap an XIA header into a DIP header."""
    encoded = xia_header.encode()
    bits = len(encoded) * 8
    fns = (
        FieldOperation(field_loc=0, field_len=bits, key=OperationKey.DAG),
        FieldOperation(field_loc=0, field_len=bits, key=OperationKey.INTENT),
    )
    return DipHeader(
        fns=fns, locations=encoded, hop_limit=hop_limit, parallel=parallel
    )


def build_xia_packet(
    dag: DagAddress,
    payload: bytes = b"",
    hop_limit: int = 64,
    xia_hop_limit: int = 64,
) -> DipPacket:
    """A complete DIP XIA packet for a destination DAG."""
    xia_header = XiaHeader(dag=dag, last_visited=-1, hop_limit=xia_hop_limit)
    return DipPacket(
        header=build_xia_header(xia_header, hop_limit), payload=payload
    )
