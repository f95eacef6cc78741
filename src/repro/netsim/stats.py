"""Per-node counters and a global event trace.

:class:`NodeStats` is a plain record of one node's packet counters,
read field by field.  :class:`TraceRecorder` is a
:class:`~repro.telemetry.tracing.Tracer` -- simulator events are
zero-length spans, so the engine's JSONL trace exporter dumps
simulation traces unchanged.  The pre-telemetry API
(``record``/``events``/``of_kind``/``at_node``) is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.telemetry.tracing import Tracer


@dataclass
class NodeStats:
    """Packet counters for one node."""

    received: int = 0
    forwarded: int = 0
    delivered: int = 0
    dropped: int = 0
    unsupported: int = 0
    control_sent: int = 0


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event (a view over a zero-length trace span)."""

    time: float
    node_id: str
    event: str
    detail: str = ""


class TraceRecorder(Tracer):
    """Append-only event trace shared by a topology's nodes.

    A :class:`~repro.telemetry.tracing.Tracer` specialization: every
    ``record`` appends a zero-length span whose name is the event kind
    and whose attributes carry the node id and detail, so simulation
    traces share the JSONL dump format with engine stage spans.  The
    original query API is kept as thin views over the spans.
    """

    def __init__(self, enabled: bool = True) -> None:
        super().__init__()
        self.enabled = enabled

    def record(
        self, time: float, node_id: str, event: str, detail: str = ""
    ) -> None:
        """Append one event (no-op when disabled)."""
        if self.enabled:
            self.event(event, at=time, node=node_id, detail=detail)

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """Every recorded event, in order (legacy view)."""
        return tuple(
            TraceEvent(
                time=span.start,
                node_id=span.attrs.get("node", ""),
                event=span.name,
                detail=span.attrs.get("detail", ""),
            )
            for span in self.spans
        )

    def of_kind(self, event: str) -> Tuple[TraceEvent, ...]:
        """All events of one kind, in order."""
        return tuple(e for e in self.events if e.event == event)

    def at_node(self, node_id: str) -> Tuple[TraceEvent, ...]:
        """All events recorded by one node, in order."""
        return tuple(e for e in self.events if e.node_id == node_id)
