"""Spans and tracers: stage timing behind the same off-by-default idiom.

A :class:`Span` is one named interval (or point event: ``start ==
end``) with free-form attributes; a :class:`Tracer` collects them in
order.  The engine records per-run and per-batch stage spans (dispatch
-> shard walk -> emit), and :class:`repro.netsim.stats.TraceRecorder`
subclasses :class:`Tracer` so simulator event traces ride the same
machinery -- one JSONL dump format for both.

The disabled path is a falsy null object (:data:`NULL_TRACER`):
callers hold one reference, ``ForwardingEngine.run`` enters
``tracer.span`` unconditionally, and the per-packet path never
branches on "is tracing on?".  (A disabled metrics registry is just
``None``: every registry use already sits behind a batch-level test.)
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple


class Span:
    """One traced interval: name, start/end seconds, attributes."""

    __slots__ = ("name", "start", "end", "attrs")

    def __init__(
        self,
        name: str,
        start: float,
        end: float,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end = end
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-row form (attribute keys flattened alongside timing)."""
        row: Dict[str, Any] = {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.end - self.start,
        }
        for key, value in self.attrs.items():
            if key not in row:
                row[key] = value
        return row

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Span":
        attrs = {
            key: value
            for key, value in data.items()
            if key not in ("name", "start", "end", "duration")
        }
        return cls(
            name=str(data["name"]),
            start=float(data["start"]),
            end=float(data["end"]),
            attrs=attrs,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration:.6f}s)"


class Tracer:
    """Append-only span collector with a context-manager helper."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time a block: ``with tracer.span("stage", shard=0): ...``."""
        start = time.perf_counter()
        record = Span(name, start, start, attrs)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.spans.append(record)

    def record_span(
        self, name: str, start: float, end: float, **attrs: Any
    ) -> Span:
        """Append an interval measured elsewhere (e.g. a shard reply)."""
        record = Span(name, start, end, attrs)
        self.spans.append(record)
        return record

    def event(self, name: str, at: float, **attrs: Any) -> Span:
        """Append a point event (zero-length span)."""
        record = Span(name, at, at, attrs)
        self.spans.append(record)
        return record

    def of_name(self, name: str) -> Tuple[Span, ...]:
        """All spans with one name, in record order."""
        return tuple(span for span in self.spans if span.name == name)

    def clear(self) -> None:
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)

    def __bool__(self) -> bool:
        return True


class NullTracer:
    """Falsy, no-op tracer (the disabled default)."""

    enabled = False
    spans: List[Span] = []  # always empty; never written

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None

    def record_span(self, name, start, end, **attrs) -> None:
        pass

    def event(self, name, at, **attrs) -> None:
        pass

    def of_name(self, name: str) -> Tuple[Span, ...]:
        return ()

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __bool__(self) -> bool:
        return False


NULL_TRACER = NullTracer()
