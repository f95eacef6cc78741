"""Content store: LRU cache of Data packets.

The paper's prototype router "has no cached data" (footnote 2), but the
footnote also sketches the extension: match the local content store
before the FIB.  We implement it so the NDN example and the content
poisoning scenario (Section 2.4 security discussion) can exercise real
caching behaviour.

Eviction is capacity-LRU plus an optional per-entry TTL: a store built
with ``ttl`` drops entries older than that on lookup (lazy, so the
timeless ``now=0.0`` paths -- conformance, run-to-completion workloads
-- never expire anything and stay deterministic).  The serving daemon
sets a TTL so cached content ages out under churn instead of pinning
the LRU tail forever.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.protocols.ndn.names import Name
from repro.protocols.ndn.packets import Data


class ContentStore:
    """Fixed-capacity LRU cache keyed by exact content name.

    Parameters
    ----------
    capacity:
        Maximum number of Data packets kept (0 disables caching).
    ttl:
        Optional entry lifetime in seconds.  None (default) keeps
        entries until LRU pressure evicts them.  Expiry is checked
        lazily on lookup against the caller's ``now`` clock and never
        fires at ``now <= 0`` (the timeless default), matching the
        PIT's guard.
    """

    def __init__(
        self, capacity: int = 256, ttl: Optional[float] = None
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None)")
        self.capacity = capacity
        self.ttl = ttl
        self._store: "OrderedDict[Name, Data]" = OrderedDict()
        self._expires: Dict[Name, float] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._store)

    def insert(self, data: Data, now: float = 0.0) -> None:
        """Cache a Data packet, evicting the least recently used."""
        if self.capacity == 0:
            return
        if data.name in self._store:
            self._store.move_to_end(data.name)
        self._store[data.name] = data
        if self.ttl is not None:
            self._expires[data.name] = now + self.ttl
        while len(self._store) > self.capacity:
            name, _ = self._store.popitem(last=False)
            self._expires.pop(name, None)
            self.evictions += 1

    def lookup(self, name: Name, now: float = 0.0) -> Optional[Data]:
        """Exact-name lookup; refreshes recency on hit."""
        data = self._store.get(name)
        if data is not None and self.ttl is not None and now > 0:
            if self._expires.get(name, 0.0) <= now:
                del self._store[name]
                self._expires.pop(name, None)
                self.expirations += 1
                data = None
        if data is None:
            self.misses += 1
            return None
        self._store.move_to_end(name)
        self.hits += 1
        return data

    def clear(self) -> None:
        """Drop all cached content."""
        self._store.clear()
        self._expires.clear()
