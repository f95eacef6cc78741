"""The fabric's component protocol: four frozen messages.

Everything crossing a component boundary is one of four timestamped
dataclasses, pickled verbatim over ``multiprocessing`` pipes and passed
by reference over in-process queues (SimBricks keeps its per-interface
message set similarly narrow -- the interface, not the components, is
the contract):

- :class:`Inject` seeds traffic into a component (a replay source's
  schedule, a scenario's host sends);
- :class:`Deliver` is one frame crossing a fabric channel, stamped with
  its *arrival* virtual time at the destination;
- :class:`Advance` is the null message of conservative synchronization:
  the sender promises no future :class:`Deliver` on that channel with a
  timestamp **strictly below** ``time`` (``math.inf`` closes the
  channel for good);
- :class:`Ack` is a component's step receipt back to the coordinator --
  its local clock and backlog -- which is what the runner's quiescence
  detection and the clock-skew gauge read.

A *channel* is the directed triple ``(src, dst, port)`` where ``port``
is the destination component's fabric port.  Channels are created in
scenario wiring order; their index in that order (the ``rank``) is the
deterministic tie-breaker components use to merge equal-timestamp
events, so event order never depends on scheduler interleaving.

Frame payloads are canonicalized at the boundary: DIP frames always
carry wire ``bytes`` (never :class:`~repro.core.packet.DipPacket`
objects), legacy frames carry raw bytes, control frames carry their
(picklable) message objects.  That keeps pipe traffic cheap and makes
the delivery digest -- SHA-256 over the bytes -- well defined in every
transport.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Frame-kind vocabulary is shared with netsim frames.
from repro.netsim.messages import (  # noqa: F401  (re-exported)
    KIND_CONTROL,
    KIND_DIP,
    KIND_IPV4,
    KIND_IPV6,
)


@dataclass(frozen=True)
class Inject:
    """Seed one frame into ``component`` at virtual ``time``.

    Sources turn their schedule into injects; adapters treat an inject
    exactly like a local event (it does not cross a channel and has no
    lookahead).  ``seq`` orders equal-time injects deterministically.
    """

    time: float
    component: str
    port: int
    kind: str
    data: Any
    size: int
    seq: int = 0


@dataclass(frozen=True)
class Deliver:
    """One frame arriving at ``dst`` port ``port`` at virtual ``time``.

    ``time`` is the *arrival* timestamp (emission time plus the
    channel's latency, plus any service latency the emitting component
    charged).  ``seq`` is the per-channel FIFO sequence number; with
    the channel rank it forms the deterministic tie-break key.
    """

    time: float
    src: str
    dst: str
    port: int
    kind: str
    data: Any
    size: int
    seq: int


@dataclass(frozen=True)
class Advance:
    """Null message: no future Deliver on this channel before ``time``.

    The conservative promise is *strict*: a later Deliver may carry a
    timestamp equal to ``time`` but never below it.  ``math.inf``
    means the channel is closed -- the sender will never emit on it
    again (a drained replay source closes its channels so zero-latency
    acyclic scenarios terminate without a cascade).
    """

    src: str
    dst: str
    port: int
    time: float


@dataclass(frozen=True)
class Ack:
    """A component's step receipt: its clock and backlog.

    ``clock`` is the highest event timestamp the component has
    processed, ``pending`` its buffered-event backlog.  The runner
    reads acks for quiescence detection (all pending zero, nothing in
    flight) and for the per-component virtual clocks of the report.
    """

    component: str
    clock: float
    pending: int
