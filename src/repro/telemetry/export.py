"""Exporters: Prometheus text format and JSONL trace dumps.

Both are dependency-free text writers over the frozen snapshot types,
so any :class:`~repro.telemetry.metrics.MetricsSnapshot` can be
scraped and any span list archived.  ``repro engine --metrics-out/--trace-out`` and
the CI benchmark artifact both come through here.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.telemetry.metrics import HistogramSnapshot, MetricsSnapshot
from repro.telemetry.tracing import Span

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def _split_labels(full_name: str) -> Tuple[str, str]:
    """``name{k="v"}`` -> (sanitized base name, ``k="v"`` label body)."""
    if "{" in full_name and full_name.endswith("}"):
        base, _, labels = full_name.partition("{")
        return _NAME_OK.sub("_", base), labels[:-1]
    return _NAME_OK.sub("_", full_name), ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _histogram_lines(
    full_name: str, snap: HistogramSnapshot
) -> List[str]:
    base, labels = _split_labels(full_name)
    prefix = f"{labels}," if labels else ""
    lines = []
    cumulative = 0
    for exponent, count in snap.buckets:
        cumulative += count
        bound = float(2.0 ** exponent)
        lines.append(
            f'{base}_bucket{{{prefix}le="{bound!r}"}} {cumulative}'
        )
    lines.append(f'{base}_bucket{{{prefix}le="+Inf"}} {snap.count}')
    suffix = f"{{{labels}}}" if labels else ""
    lines.append(f"{base}_sum{suffix} {_format_value(snap.sum)}")
    lines.append(f"{base}_count{suffix} {snap.count}")
    return lines


def to_prometheus(snapshot: MetricsSnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    One ``# TYPE`` line per metric family (label variants share it),
    histogram families as cumulative ``_bucket{le=...}`` series with
    the ``+Inf`` bucket, ``_sum`` and ``_count``.  Ends with a trailing
    newline, as the format requires.
    """
    lines: List[str] = []
    typed: set = set()

    def emit_type(base: str, kind: str) -> None:
        if base not in typed:
            typed.add(base)
            lines.append(f"# TYPE {base} {kind}")

    for full_name in sorted(snapshot.counters):
        base, labels = _split_labels(full_name)
        emit_type(base, "counter")
        suffix = f"{{{labels}}}" if labels else ""
        value = snapshot.counters[full_name]
        lines.append(f"{base}{suffix} {_format_value(value)}")
    for full_name in sorted(snapshot.gauges):
        base, labels = _split_labels(full_name)
        emit_type(base, "gauge")
        suffix = f"{{{labels}}}" if labels else ""
        value = snapshot.gauges[full_name]
        lines.append(f"{base}{suffix} {_format_value(value)}")
    for full_name in sorted(snapshot.histograms):
        base, _ = _split_labels(full_name)
        emit_type(base, "histogram")
        lines.extend(_histogram_lines(full_name, snapshot.histograms[full_name]))
    return "\n".join(lines) + "\n" if lines else ""


def write_prometheus(snapshot: MetricsSnapshot, path: str) -> str:
    """Write the Prometheus text rendering to ``path``; returns it."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(to_prometheus(snapshot))
    return path


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One compact JSON object per line, in record order."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in spans
    )


def write_trace_jsonl(spans: Iterable[Span], path: str) -> str:
    """Write spans as JSONL to ``path``; returns it."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(spans_to_jsonl(spans))
    return path


def read_trace_jsonl(path: str) -> List[Span]:
    """Inverse of :func:`write_trace_jsonl` (skips blank lines)."""
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_dict(json.loads(line)))
    return spans


def snapshot_rows(snapshot: MetricsSnapshot) -> List[Sequence[Any]]:
    """``(metric, type, value)`` rows for table pretty-printing.

    Histograms expand to count / sum / p50 / p99 rows so the
    ``repro stats`` table answers the paper's Figure 2 questions
    (per-batch timing) without a Prometheus server in the loop.
    """
    rows: List[Sequence[Any]] = []
    for name in sorted(snapshot.counters):
        rows.append([name, "counter", _format_value(snapshot.counters[name])])
    for name in sorted(snapshot.gauges):
        rows.append([name, "gauge", _format_value(snapshot.gauges[name])])
    for name in sorted(snapshot.histograms):
        snap = snapshot.histograms[name]
        rows.append([f"{name}_count", "histogram", snap.count])
        rows.append([f"{name}_sum", "histogram", _format_value(snap.sum)])
        rows.append(
            [f"{name}_p50", "histogram", _format_value(snap.quantile(0.50))]
        )
        rows.append(
            [f"{name}_p99", "histogram", _format_value(snap.quantile(0.99))]
        )
    return rows


def snapshot_to_json(snapshot: MetricsSnapshot) -> Dict[str, object]:
    """Alias for ``snapshot.to_dict()`` kept next to the other writers."""
    return snapshot.to_dict()
