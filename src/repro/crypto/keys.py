"""Key-material containers for routers and hosts.

A :class:`RouterKey` wraps a router's long-lived local secret and the
dynamic-key derivation OPT performs per packet.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from repro.crypto.prf import KEY_SIZE, derive_key

# F_parm derives a key for whatever session ID the wire carries, so a
# stream of spoofed IDs must not grow a router's key cache without bound
# (the same bound as the program cache, PROGRAM_CACHE_BOUND).
DYNAMIC_KEY_CACHE_BOUND = 4096


def secret_from_seed(seed: str) -> bytes:
    """Deterministically expand a human-readable seed into a 16-byte secret.

    Only used to provision the simulation (real deployments would use a
    hardware RNG); SHA-256 keeps it deterministic across runs.
    """
    return hashlib.sha256(seed.encode("utf-8")).digest()[:KEY_SIZE]


class RouterKey:
    """A router's local secret plus its per-session dynamic-key cache.

    The cache is an LRU of at most ``DYNAMIC_KEY_CACHE_BOUND`` sessions;
    an evicted session simply re-derives the same key.

    Parameters
    ----------
    node_id:
        Stable identifier of the router (used as a derivation label).
    local_secret:
        16-byte long-lived secret.  Derived from ``node_id`` when omitted,
        which keeps simulations deterministic.
    """

    def __init__(self, node_id: str, local_secret: bytes = b"") -> None:
        self.node_id = node_id
        self._secret = local_secret or secret_from_seed(f"router:{node_id}")
        if len(self._secret) != KEY_SIZE:
            raise ValueError(f"local secret must be {KEY_SIZE} bytes")
        self._dynamic_cache: "OrderedDict[bytes, bytes]" = OrderedDict()

    def dynamic_key(self, session_id: bytes) -> bytes:
        """Derive (and cache) the dynamic key for ``session_id``."""
        cache = self._dynamic_cache
        cached = cache.get(session_id)
        if cached is not None:
            cache.move_to_end(session_id)
            return cached
        cached = derive_key(self._secret, session_id, self.node_id.encode("utf-8"))
        cache[session_id] = cached
        if len(cache) > DYNAMIC_KEY_CACHE_BOUND:
            cache.popitem(last=False)
        return cached

    def clear_cache(self) -> None:
        """Drop all cached dynamic keys (e.g. on session teardown)."""
        self._dynamic_cache.clear()
