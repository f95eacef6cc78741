"""Unified metrics/tracing layer behind one stats API.

The paper's evaluation (Figure 2 per-packet processing time, Table 2
header overhead) is about *measuring* the FN pipeline; this package is
the one observability layer the whole reproduction reports through:

- :mod:`repro.telemetry.metrics` -- ``Counter``/``Gauge``/``Histogram``
  (fixed log2 buckets, mergeable by addition), ``MetricsRegistry``
  and the ``MetricsSnapshot`` the exporters render;
- :mod:`repro.telemetry.tracing` -- ``Span``/``Tracer`` stage timing
  (parse -> FN walk -> cache -> emit at batch granularity) that the
  netsim ``TraceRecorder`` is also built on;
- :mod:`repro.telemetry.export` -- Prometheus text format and JSONL
  trace dumps.

Telemetry is **off by default**: a consumer holds ``None`` for its
registry and the falsy no-op :data:`NULL_TRACER` for its tracer, so
the per-packet fast path carries no telemetry conditionals (cost
budget: <=5% on the engine throughput bench; see DESIGN.md 3.8).
"""

from repro.telemetry.export import (
    read_trace_jsonl,
    snapshot_rows,
    spans_to_jsonl,
    to_prometheus,
    write_prometheus,
    write_trace_jsonl,
)
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_exponent,
    nearest_rank,
)
from repro.telemetry.tracing import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "bucket_exponent",
    "nearest_rank",
    "read_trace_jsonl",
    "snapshot_rows",
    "spans_to_jsonl",
    "to_prometheus",
    "write_prometheus",
    "write_trace_jsonl",
]
