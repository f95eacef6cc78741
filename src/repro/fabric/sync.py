"""Conservative lookahead synchronization for fabric components.

Every component owns a local virtual clock and a heap of buffered
events.  The synchronization rule is the classic conservative one
(Chandy-Misra-Bryant null messages, the scheme SimBricks builds its
inter-simulator sync on):

- each *input* channel carries a promise clock, raised only by
  :class:`~repro.fabric.messages.Advance` messages: "no future Deliver
  on this channel with a timestamp strictly below T";
- a component's **horizon** is the minimum promise over its input
  channels (``inf`` with no inputs, or when every input has closed);
- an event is safe to process exactly when its timestamp is strictly
  below the horizon;
- after every step a component re-promises each output channel with
  ``min(horizon, next local event) + latency`` -- any output it can
  ever produce is caused either by a buffered event or by an input
  that has not arrived yet, and the channel's latency is the lookahead
  that keeps the bound strictly in the future.  Promises are monotone
  and deduplicated, so the null-message traffic is proportional to
  progress, not to time.

Determinism under interleaving (the property the Hypothesis suite
checks) follows from the buffering discipline: events are merged in
``(time, channel rank, per-channel seq)`` order, all three components
of which are decided by the *sender*, never by arrival order.  Two
runs that deliver the same messages -- in any order, across any
process placement -- process them identically.

Note the promise clock is raised **only** by Advance messages, never
by Deliver timestamps: a component that charges per-packet service
latency (the PISA adapter) legally emits out of timestamp order within
its promised bound, so a Deliver's timestamp is not a floor on later
traffic.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import FabricError
from repro.fabric.messages import Ack, Advance, Deliver, Inject

INF = math.inf


def payload_digest(data: Any) -> str:
    """Stable short digest of a frame payload (bytes or object)."""
    blob = (
        bytes(data)
        if isinstance(data, (bytes, bytearray, memoryview))
        else repr(data).encode()
    )
    return hashlib.sha256(blob).hexdigest()[:16]


class OutChannel:
    """Sender-side state of one directed channel."""

    __slots__ = ("dst", "port", "latency", "rank", "seq", "promised")

    def __init__(self, dst: str, port: int, latency: float, rank: int) -> None:
        self.dst = dst
        self.port = port
        self.latency = latency
        self.rank = rank
        self.seq = 0
        self.promised = 0.0


class Component:
    """Base fabric participant: ports, event heap, promise bookkeeping.

    Subclasses implement :meth:`on_frame` (or override :meth:`step`
    wholesale, as the netsim adapter does) and may use :meth:`emit`
    to put frames on output channels.  The runner wires channels,
    feeds :meth:`accept`, drains :meth:`take_outbox` and reads
    :meth:`promises` / :meth:`ack`.
    """

    def __init__(self, component_id: str) -> None:
        self.id = component_id
        self.clock = 0.0
        self.processed = 0
        self.emitted = 0
        # (src, local port) -> promise clock; rank kept for diagnostics.
        self._in: Dict[Tuple[str, int], float] = {}
        self._in_rank: Dict[Tuple[str, int], int] = {}
        # local out port -> OutChannel
        self._out: Dict[int, OutChannel] = {}
        # heap of (time, channel rank, seq, port, kind, data, size)
        self._events: List[Tuple] = []
        self._outbox: List[Deliver] = []
        #: set True by drained sources: every output channel closes.
        self._source_closed = False
        #: fall-back local out port for egress ports with no channel.
        self.default_out: Optional[int] = None
        self.tx_errors = 0

    # -- wiring (runner calls, in deterministic scenario order) --------
    def add_input(self, src: str, port: int, rank: int) -> None:
        self._in[(src, port)] = 0.0
        self._in_rank[(src, port)] = rank

    def add_output(
        self, port: int, dst: str, dst_port: int, latency: float, rank: int
    ) -> None:
        if port in self._out:
            raise FabricError(
                f"{self.id}: fabric port {port} wired twice"
            )
        if latency < 0:
            raise FabricError(f"{self.id}: negative channel latency")
        self._out[port] = OutChannel(dst, dst_port, latency, rank)

    # -- protocol -------------------------------------------------------
    def accept(self, message) -> None:
        if isinstance(message, Deliver):
            key = (message.src, message.port)
            if key not in self._in:
                raise FabricError(
                    f"{self.id}: Deliver on unwired channel {key}"
                )
            heapq.heappush(
                self._events,
                (
                    message.time,
                    self._in_rank[key],
                    message.seq,
                    message.port,
                    message.kind,
                    message.data,
                    message.size,
                ),
            )
        elif isinstance(message, Advance):
            key = (message.src, message.port)
            if key not in self._in:
                raise FabricError(
                    f"{self.id}: Advance on unwired channel {key}"
                )
            if message.time > self._in[key]:
                self._in[key] = message.time
        elif isinstance(message, Inject):
            self.inject(message)
        else:  # pragma: no cover - defensive
            raise FabricError(f"unknown fabric message {message!r}")

    def inject(self, message: Inject) -> None:
        """Seed a local event (no channel, rank -1, no lookahead)."""
        heapq.heappush(
            self._events,
            (
                message.time,
                -1,
                message.seq,
                message.port,
                message.kind,
                message.data,
                message.size,
            ),
        )

    def horizon(self) -> float:
        """Largest time below which no new input can arrive."""
        return min(self._in.values()) if self._in else INF

    def next_event_time(self) -> float:
        return self._events[0][0] if self._events else INF

    def pending(self) -> int:
        return len(self._events)

    def start(self) -> None:
        """Pre-run hook (sources flush their schedules here)."""

    def step(self) -> int:
        """Process every safe event; returns how many were processed."""
        before = self.processed
        horizon = self.horizon()
        while self._events and self._events[0][0] < horizon:
            time, _rank, _seq, port, kind, data, size = heapq.heappop(
                self._events
            )
            if time > self.clock:
                self.clock = time
            self.on_frame(time, port, kind, data, size)
            self.processed += 1
        return self.processed - before

    def on_frame(
        self, time: float, port: int, kind: str, data: Any, size: int
    ) -> None:
        raise NotImplementedError

    def emit(
        self, time: float, port: int, kind: str, data: Any, size: int
    ) -> bool:
        """Put a frame on the channel wired to local ``port``.

        ``time`` is the emission timestamp (event time plus any service
        latency); the Deliver is stamped with ``time + latency``.
        Falls back to :attr:`default_out`, counts a tx error when no
        channel exists (netsim's no-link-on-port behaviour).
        """
        channel = self._out.get(port)
        if channel is None and self.default_out is not None:
            channel = self._out.get(self.default_out)
        if channel is None:
            self.tx_errors += 1
            return False
        channel.seq += 1
        self._outbox.append(
            Deliver(
                time=time + channel.latency,
                src=self.id,
                dst=channel.dst,
                port=channel.port,
                kind=kind,
                data=data,
                size=size,
                seq=channel.seq,
            )
        )
        self.emitted += 1
        return True

    def take_outbox(self) -> List[Deliver]:
        out, self._outbox = self._outbox, []
        return out

    def promises(self) -> List[Advance]:
        """Monotone per-channel lower bounds (deduplicated)."""
        if not self._out:
            return []
        if self._source_closed:
            bound = INF
        else:
            bound = min(self.horizon(), self.next_event_time())
        advances: List[Advance] = []
        for channel in self._out.values():
            promise = INF if bound == INF else bound + channel.latency
            if promise > channel.promised:
                channel.promised = promise
                advances.append(
                    Advance(self.id, channel.dst, channel.port, promise)
                )
        return advances

    def ack(self) -> Ack:
        return Ack(self.id, self.clock, self.pending())

    # -- reporting ------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Flat numeric counters for the run report (subclasses extend)."""
        return {
            "processed": self.processed,
            "emitted": self.emitted,
            "tx_errors": self.tx_errors,
            "clock": self.clock,
        }

    def records(self) -> List[Tuple[float, str, str]]:
        """``(time, where, digest)`` delivery records (sinks extend)."""
        return []

    def report(self) -> Dict[str, Any]:
        return {"counters": self.counters(), "records": self.records()}
