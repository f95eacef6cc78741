"""Pending Interest Table.

The PIT records, per content name, which ports interests arrived on so
returning Data can retrace the reverse path.  Key behaviours (all
exercised by tests):

- *aggregation*: a second interest for the same name adds its ingress
  port to the existing entry instead of being forwarded again;
- *nonce-based duplicate suppression*: the same nonce seen twice is a
  loop and is reported as a duplicate;
- *expiry*: entries disappear after their lifetime;
- *consumption*: a Data packet pops the entry (per the paper's
  Algorithm 1, a PIT miss means the Data is discarded);
- *bounded memory*: an optional ``capacity`` caps the table; at the
  cap, recording a new name evicts under a pluggable policy (``lru``
  refreshes recency on aggregation/retransmission, ``fifo`` evicts in
  pure insertion order).  Unbounded (``capacity=None``) is the
  default, so run-to-completion workloads and the conformance corpus
  keep their historical behaviour; the serving daemon always bounds
  it, because a long-lived ingress with an unbounded PIT is an
  interest-flooding memory leak (the churn case DESIGN.md 3.11
  stresses).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Set

from repro.protocols.ndn.names import Name

PIT_EVICTION_POLICIES = ("lru", "fifo")


@dataclass
class PitEntry:
    """State kept for one pending content name."""

    name: Name
    in_ports: Set[int] = field(default_factory=set)
    nonces: Set[int] = field(default_factory=set)
    expires_at: float = 0.0


@dataclass(frozen=True)
class PitInsertResult:
    """Outcome of recording one interest."""

    is_new: bool
    is_duplicate: bool


class Pit:
    """Pending interest table keyed by exact content name.

    Parameters
    ----------
    default_lifetime:
        Entry lifetime in seconds when the interest does not say.
    capacity:
        Maximum entries kept; None (default) means unbounded.  At the
        cap, a new name evicts the coldest entry (policy below) and
        counts it in ``evictions`` -- bounded memory beats completeness
        for a long-lived daemon, and an evicted entry only costs the
        upstream retransmission NDN already tolerates.
    eviction:
        ``"lru"`` (default): aggregation and retransmission refresh an
        entry's recency; ``"fifo"``: pure insertion order.
    """

    def __init__(
        self,
        default_lifetime: float = 4.0,
        capacity: Optional[int] = None,
        eviction: str = "lru",
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("capacity must be positive (or None)")
        if eviction not in PIT_EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r} "
                f"(want one of {PIT_EVICTION_POLICIES})"
            )
        self.default_lifetime = default_lifetime
        self.capacity = capacity
        self.eviction = eviction
        self._entries: "OrderedDict[Name, PitEntry]" = OrderedDict()
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def insert(
        self,
        name: Name,
        in_port: int,
        nonce: int = 0,
        now: float = 0.0,
        lifetime: Optional[float] = None,
    ) -> PitInsertResult:
        """Record an interest arrival.

        Returns whether the entry is new (the interest must be forwarded
        upstream) and whether the nonce marks a duplicate/loop.
        """
        self._expire_entry(name, now)
        entry = self._entries.get(name)
        if entry is None:
            if (
                self.capacity is not None
                and len(self._entries) >= self.capacity
            ):
                self._entries.popitem(last=False)
                self.evictions += 1
            entry = PitEntry(name=name)
            self._entries[name] = entry
            is_new = True
        else:
            is_new = False
            if self.eviction == "lru":
                self._entries.move_to_end(name)
        is_duplicate = nonce != 0 and nonce in entry.nonces
        if nonce:
            entry.nonces.add(nonce)
        if not is_duplicate:
            entry.in_ports.add(in_port)
        life = self.default_lifetime if lifetime is None else lifetime
        entry.expires_at = max(entry.expires_at, now + life)
        return PitInsertResult(is_new=is_new, is_duplicate=is_duplicate)

    def satisfy(self, name: Name, now: float = 0.0) -> Optional[Set[int]]:
        """Consume the entry for ``name``; return its ports or None."""
        self._expire_entry(name, now)
        entry = self._entries.pop(name, None)
        return set(entry.in_ports) if entry else None

    def peek(self, name: Name, now: float = 0.0) -> Optional[PitEntry]:
        """Inspect an entry without consuming it (refreshes LRU order)."""
        self._expire_entry(name, now)
        entry = self._entries.get(name)
        if entry is not None and self.eviction == "lru":
            self._entries.move_to_end(name)
        return entry

    def _expire_entry(self, name: Name, now: float) -> None:
        entry = self._entries.get(name)
        if entry is not None and entry.expires_at <= now and now > 0:
            del self._entries[name]
            self.expirations += 1
