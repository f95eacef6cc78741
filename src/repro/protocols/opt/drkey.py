"""DRKey-style dynamic key derivation and session negotiation.

In OPT, routers keep no per-flow state: each derives a *dynamic key*
from the packet's session ID and its own local secret.  The source
learns every on-path dynamic key during key negotiation, so the
destination (who shares a key with the source) can later re-derive the
whole tag chain and validate the path.

``negotiate_session`` models that negotiation for the simulation: it
asks each on-path router object for its dynamic key (which is exactly
what the key-exchange protocol would transport, encrypted, in a real
deployment) and returns the host-side session object.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Sequence

from repro.crypto.keys import RouterKey
from repro.crypto.prf import KEY_SIZE
from repro.protocols.opt.session import OptSession


@functools.lru_cache(maxsize=1024)
def label_digest(node_id: str) -> bytes:
    """Fixed-length (16-byte) public label for a node identifier.

    Used as the "previous validator node label" that F_parm loads and
    F_MAC mixes into the per-hop tag (Section 3, OPT paragraph).  Labels
    come from neighbour configuration, so a small memo covers them.
    """
    return hashlib.sha256(f"label:{node_id}".encode("utf-8")).digest()[:KEY_SIZE]


def make_session_id(source_id: str, dest_id: str, nonce: bytes) -> bytes:
    """Deterministic 16-byte session ID from endpoints and a nonce."""
    material = b"session|" + source_id.encode() + b"|" + dest_id.encode() + b"|" + nonce
    return hashlib.sha256(material).digest()[:KEY_SIZE]


def negotiate_session(
    source_id: str,
    dest_id: str,
    routers: Sequence[RouterKey],
    destination: RouterKey,
    nonce: bytes = b"\x00",
) -> OptSession:
    """Run (simulated) key negotiation for a path.

    Parameters
    ----------
    source_id, dest_id:
        Endpoint identifiers.
    routers:
        The on-path routers, in path order.
    destination:
        The destination host's key material (supplies the
        source-destination key that seeds the PVF chain).
    nonce:
        Distinguishes sessions between the same endpoints.
    """
    if not routers:
        raise ValueError("OPT path must contain at least one router")
    session_id = make_session_id(source_id, dest_id, nonce)
    hop_keys = [router.dynamic_key(session_id) for router in routers]
    dest_key = destination.dynamic_key(session_id)
    return OptSession(
        session_id=session_id,
        source_id=source_id,
        dest_id=dest_id,
        path_ids=tuple(router.node_id for router in routers),
        hop_keys=tuple(hop_keys),
        dest_key=dest_key,
    )
