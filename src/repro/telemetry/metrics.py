"""Metrics primitives: counters, gauges, log2 histograms, a registry.

One observability idiom for the whole stack:

- :class:`Counter` / :class:`Gauge` -- plain monotonic / settable
  values with names;
- :class:`Histogram` -- fixed log2 buckets (the bucket of value ``v``
  is its binary exponent), so two shards' histograms merge by plain
  bucket addition, the same trick that makes
  ``FlowCacheStats.__add__`` associative;
- :class:`MetricsRegistry` -- get-or-create by name, one
  :meth:`~MetricsRegistry.snapshot` for the exporters;
- :class:`MetricsSnapshot` -- the frozen, mergeable view the
  exporters render and the report types (``EngineReport``,
  ``FlowCacheStats``, ``MitigationStats``) answer ``snapshot()`` with.

**Disabled-path cost.**  Telemetry is off by default.  A component
with telemetry off holds ``None`` instead of a registry and tests it
once at construction or batch granularity, so the per-packet fast path
carries no telemetry conditionals at all (see DESIGN.md 3.8 for the
<=5% budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

# Histogram bucket range: binary exponents covering ~1ns latencies
# (2^-30 s) up to ~8.6e9 (2^33) model cycles.  Out-of-range values
# clamp to the edge buckets; the range is part of the wire format, so
# snapshots from different shards always line up bucket-for-bucket.
MIN_EXP = -30
MAX_EXP = 33


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0.0 when empty).

    ``rank = max(1, ceil(n * fraction))``, 1-indexed -- so
    ``fraction=0.0`` is the minimum and ``fraction=1.0`` the maximum.
    (Replaces the old ``-(-n * f // 1)`` ceil idiom in
    ``engine/engine.py``.)
    """
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(len(sorted_values) * fraction))
    return sorted_values[rank - 1]


def bucket_exponent(value: float) -> int:
    """The log2 bucket a value falls in: smallest ``e`` with ``v <= 2^e``.

    Non-positive values land in the lowest bucket; the result is
    clamped to ``[MIN_EXP, MAX_EXP]``.
    """
    if value <= 0:
        return MIN_EXP
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2**exponent
    # frexp gives 0.5 <= mantissa < 1, so value <= 2**exponent with
    # equality exactly at powers of two (mantissa == 0.5).
    return min(MAX_EXP, max(MIN_EXP, exponent))


class Counter:
    """A named, monotonically increasing value."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (monotonic by convention, not enforced)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named value that can go up and down."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self.value})"


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state: sparse log2 buckets plus the moments.

    ``buckets`` maps binary exponent -> observation count (only
    non-empty buckets are kept); ``low``/``high`` are the exact
    extremes observed, which lets :meth:`quantile` return exact values
    for n=1 and clamp every estimate into the observed range.
    """

    buckets: Tuple[Tuple[int, int], ...] = ()
    count: int = 0
    sum: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise addition (associative and commutative)."""
        if not other.count:
            return self
        if not self.count:
            return other
        merged: Dict[int, int] = dict(self.buckets)
        for exponent, count in other.buckets:
            merged[exponent] = merged.get(exponent, 0) + count
        return HistogramSnapshot(
            buckets=tuple(sorted(merged.items())),
            count=self.count + other.count,
            sum=self.sum + other.sum,
            low=min(self.low, other.low),
            high=max(self.high, other.high),
        )

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile estimate from the log2 buckets.

        The rank's bucket upper bound ``2^e``, clamped into
        ``[low, high]`` -- so a single-observation histogram returns
        that observation exactly, ``fraction=0.0`` never undershoots
        the minimum and ``fraction=1.0`` never overshoots the maximum.
        """
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * fraction))
        seen = 0
        for exponent, count in self.buckets:
            seen += count
            if seen >= rank:
                return min(self.high, max(self.low, float(2.0 ** exponent)))
        return self.high  # pragma: no cover - counts always cover rank

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "buckets": [[e, c] for e, c in self.buckets],
            "count": self.count,
            "sum": self.sum,
            "low": self.low,
            "high": self.high,
        }


class Histogram:
    """Observations bucketed by binary exponent (fixed log2 buckets).

    Per-shard histograms of the same metric merge by addition because
    every histogram shares one immutable bucket layout -- there is no
    per-instance bucket configuration to disagree on.
    """

    __slots__ = ("name", "help", "_buckets", "count", "sum", "low", "high")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.low = math.inf
        self.high = -math.inf

    def observe(self, value: float) -> None:
        exponent = bucket_exponent(value)
        self._buckets[exponent] = self._buckets.get(exponent, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def observe_count(self, value: float, count: int) -> None:
        """Record ``count`` identical observations in one update.

        The bulk form behind the processor's per-flush telemetry drain:
        a batch's cycle observations collapse to a handful of distinct
        values, so the flush aggregates first and pays one bucket
        update per distinct value instead of one per packet.
        """
        if count <= 0:
            return
        exponent = bucket_exponent(value)
        self._buckets[exponent] = self._buckets.get(exponent, 0) + count
        self.count += count
        self.sum += value * count
        if value < self.low:
            self.low = value
        if value > self.high:
            self.high = value

    def quantile(self, fraction: float) -> float:
        """Nearest-rank quantile (see :meth:`HistogramSnapshot.quantile`)."""
        return self.snapshot().quantile(fraction)

    def snapshot(self) -> HistogramSnapshot:
        empty = not self.count
        return HistogramSnapshot(
            buckets=tuple(sorted(self._buckets.items())),
            count=self.count,
            sum=self.sum,
            low=0.0 if empty else self.low,
            high=0.0 if empty else self.high,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self.count})"


@dataclass(frozen=True)
class MetricsSnapshot:
    """The frozen, mergeable view of a registry (or of a report).

    Snapshots merge associatively (counters and gauges add, histograms
    add bucket-wise); the exporters render one.
    """

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        counters = dict(self.counters)
        for name, value in other.counters.items():
            counters[name] = counters.get(name, 0) + value
        gauges = dict(self.gauges)
        for name, value in other.gauges.items():
            gauges[name] = gauges.get(name, 0) + value
        histograms = dict(self.histograms)
        for name, snap in other.histograms.items():
            mine = histograms.get(name)
            histograms[name] = snap if mine is None else mine.merge(snap)
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    __add__ = merge

    def to_dict(self) -> Dict[str, object]:
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: snap.to_dict()
                for name, snap in self.histograms.items()
            },
        }


class MetricsRegistry:
    """Get-or-create home for named metrics, one snapshot for export.

    Names follow the Prometheus convention (``subsystem_metric_unit``,
    ``_total`` suffix on counters); an optional ``labels`` tuple of
    ``(key, value)`` pairs is folded into the stored name as
    ``name{key="value"}`` so the text exporter emits it verbatim.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @staticmethod
    def _full_name(
        name: str, labels: Optional[Tuple[Tuple[str, str], ...]]
    ) -> str:
        if not labels:
            return name
        rendered = ",".join(f'{key}="{value}"' for key, value in labels)
        return f"{name}{{{rendered}}}"

    def counter(
        self,
        name: str,
        help: str = "",
        labels: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> Counter:
        full = self._full_name(name, labels)
        metric = self._counters.get(full)
        if metric is None:
            metric = self._counters[full] = Counter(full, help)
        return metric

    def gauge(
        self,
        name: str,
        help: str = "",
        labels: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> Gauge:
        full = self._full_name(name, labels)
        metric = self._gauges.get(full)
        if metric is None:
            metric = self._gauges[full] = Gauge(full, help)
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Optional[Tuple[Tuple[str, str], ...]] = None,
    ) -> Histogram:
        full = self._full_name(name, labels)
        metric = self._histograms.get(full)
        if metric is None:
            metric = self._histograms[full] = Histogram(full, help)
        return metric

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={
                name: metric.value
                for name, metric in self._counters.items()
            },
            gauges={
                name: metric.value for name, metric in self._gauges.items()
            },
            histograms={
                name: metric.snapshot()
                for name, metric in self._histograms.items()
            },
        )
