"""Bounded rings between the dispatcher and the worker shards, as
per-run accounting.

Each shard is fed through a bounded ring of ``ring_capacity`` slots
that its worker drains one batch of ``batch_size`` at a time.  With
``"block"`` backpressure a full ring stalls the dispatcher until the
shard takes a batch (no loss); with ``"drop-tail"`` the refused packet
is discarded and counted, as a hardware RX queue would.

The supervisor dispatches a whole run at once, so nothing has to be
pushed or popped packet by packet: :func:`cut_batches` computes, from
each shard's input indices, the batches those rings would have handed
over, the order they would have left in, and the three numbers an
operator asks of a queue -- how much went through, how much was lost,
and how close it came to overflowing (:class:`RingStats`).  The work is
O(batches), not O(packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class RingStats:
    """Counters for one shard's ring over one run.

    Parameters
    ----------
    capacity:
        Maximum queue depth.
    enqueued:
        Items accepted.
    dropped:
        Items refused and discarded (drop-tail backpressure).
    high_watermark:
        Deepest the queue got.
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


def cut_batches(
    per_shard: List[List[int]],
    batch_size: int,
    ring_capacity: int,
    drop_tail: bool,
) -> Tuple[List[Tuple[int, List[int]]], Tuple[RingStats, ...]]:
    """The batches each shard's ring hands over, in departure order.

    ``per_shard[s]`` holds shard ``s``'s input indices in arrival
    order.  A worker takes ``cut = min(batch_size, ring_capacity)``
    packets at a time.  A full batch leaves when its last packet
    arrives (``ring_capacity >= batch_size``), or, with a smaller ring
    under "block", when the next packet finds the ring full; anything
    left at end of input leaves afterwards, shard by shard.  Under
    "drop-tail" a ring smaller than ``batch_size`` never wakes its
    worker mid-run, so it keeps its first ``ring_capacity`` packets
    and drops the rest.

    Returns ``(schedule, rings)``: ``(shard, indices)`` batches in the
    order they leave, and one :class:`RingStats` per shard.
    """
    cut = min(batch_size, ring_capacity)
    due: List[Tuple[int, int, List[int]]] = []  # (departure, shard, batch)
    tail: List[Tuple[int, List[int]]] = []
    rings = []
    for shard, indices in enumerate(per_shard):
        offered = len(indices)
        if drop_tail and cut < batch_size:
            indices = indices[:cut]
        kept = len(indices)
        rings.append(
            RingStats(ring_capacity, kept, offered - kept, min(kept, cut))
        )
        for start in range(0, kept, cut):
            end = start + cut
            batch = indices[start:end]
            if end <= kept and cut == batch_size:
                due.append((batch[-1], shard, batch))
            elif end < kept:
                due.append((indices[end], shard, batch))
            else:
                tail.append((shard, batch))
    due.sort()
    return [(shard, batch) for _, shard, batch in due] + tail, tuple(rings)
