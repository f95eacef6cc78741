"""Bounded rings between the dispatcher and the worker shards.

A :class:`Ring` is a bounded FIFO with explicit backpressure: ``push``
refuses (returns False) instead of growing without bound, and the
caller decides whether to wait for space ("block") or discard the
packet ("drop-tail", recorded via :meth:`Ring.record_drop`).  Counters
cover the three questions an operator asks of a queue -- how much went
through, how much was lost, and how close it came to overflowing.

The rings live on the supervisor's side of the transport seam
(repro.engine.transport) and are used single-threaded -- one producer,
one consumer taking turns -- so no locking is needed whichever way a
drained batch then travels.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List


@dataclass(frozen=True)
class RingStats:
    """Counters for one ring, frozen at reporting time.

    Parameters
    ----------
    capacity:
        Maximum queue depth.
    enqueued:
        Items accepted over the ring's lifetime.
    dropped:
        Items refused and discarded (drop-tail backpressure).
    high_watermark:
        Deepest the queue ever got.
    """

    capacity: int
    enqueued: int
    dropped: int
    high_watermark: int

    def to_dict(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "enqueued": self.enqueued,
            "dropped": self.dropped,
            "high_watermark": self.high_watermark,
        }


class Ring:
    """A bounded FIFO queue with drop/occupancy accounting."""

    __slots__ = ("capacity", "_items", "enqueued", "dropped", "high_watermark")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("ring capacity must be positive")
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self.enqueued = 0
        self.dropped = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def push(self, item: Any) -> bool:
        """Enqueue one item; False (and no side effect) when full.

        The caller chooses the backpressure policy: drain and retry
        (block) or call :meth:`record_drop` and move on (drop-tail).
        """
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        self.enqueued += 1
        if len(items) > self.high_watermark:
            self.high_watermark = len(items)
        return True

    def record_drop(self) -> None:
        """Count one packet discarded because the ring was full."""
        self.dropped += 1

    def pop_batch(self, max_items: int) -> List[Any]:
        """Dequeue up to ``max_items`` items (may return fewer or none)."""
        items = self._items
        count = min(max_items, len(items))
        return [items.popleft() for _ in range(count)]

    def stats(self) -> RingStats:
        """A frozen snapshot of the ring's counters."""
        return RingStats(
            capacity=self.capacity,
            enqueued=self.enqueued,
            dropped=self.dropped,
            high_watermark=self.high_watermark,
        )
