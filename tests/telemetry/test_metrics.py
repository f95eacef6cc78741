"""Unit tests for the metrics primitives.

The load-bearing properties: the log2 histogram merges by bucket
addition (associatively), quantiles are exact at the boundaries the
old ``_percentile`` idiom was fragile around (n=1, fraction 0.0 and
1.0), and the registry hands out one metric per name.
"""

import pytest

from repro.telemetry.metrics import (
    MAX_EXP,
    MIN_EXP,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    bucket_exponent,
    nearest_rank,
)


class TestNearestRank:
    """The ``math.ceil`` replacement for the old ``-(-n*f//1)`` idiom."""

    def test_empty_is_zero(self):
        assert nearest_rank([], 0.5) == 0.0

    def test_single_value_all_fractions(self):
        # n=1: every fraction must return the one observation.
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert nearest_rank([7.5], fraction) == 7.5

    def test_fraction_zero_is_minimum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 0.0) == 1.0

    def test_fraction_one_is_maximum(self):
        assert nearest_rank([1.0, 2.0, 3.0], 1.0) == 3.0

    def test_median_of_even_count(self):
        # nearest-rank: rank = ceil(4 * 0.5) = 2 (no interpolation).
        assert nearest_rank([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0

    def test_p99_of_hundred(self):
        values = [float(i) for i in range(1, 101)]
        assert nearest_rank(values, 0.99) == 99.0

    def test_matches_old_ceil_idiom(self):
        # The replaced expression: idx = int(-(-n * f // 1)) - 1.
        values = [float(i) for i in range(1, 38)]
        for fraction in (0.01, 0.25, 0.5, 0.9, 0.99):
            old_rank = int(-(-len(values) * fraction // 1))
            old = values[max(0, old_rank - 1)]
            assert nearest_rank(values, fraction) == old


class TestBucketExponent:
    def test_bucket_invariant(self):
        # frexp semantics: 2^(e-1) <= v < 2^e, so 2^e is always a
        # valid upper bound for the bucket's members.
        for value in (0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 1000.0):
            exponent = bucket_exponent(value)
            assert 2.0 ** (exponent - 1) <= value <= 2.0 ** exponent

    def test_known_buckets(self):
        assert bucket_exponent(1.0) == 1  # frexp(1.0) == (0.5, 1)
        assert bucket_exponent(3.0) == 2  # 2 <= 3 < 4
        assert bucket_exponent(0.3) == -1  # 0.25 <= 0.3 < 0.5

    def test_nonpositive_clamps_low(self):
        assert bucket_exponent(0.0) == MIN_EXP
        assert bucket_exponent(-5.0) == MIN_EXP

    def test_extremes_clamp(self):
        assert bucket_exponent(1e-30) == MIN_EXP
        assert bucket_exponent(1e30) == MAX_EXP


class TestCounterGauge:
    def test_counter_inc(self):
        counter = Counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_gauge_set_inc(self):
        gauge = Gauge("g")
        gauge.set(2.5)
        gauge.inc()
        assert gauge.value == 3.5


class TestHistogram:
    def test_single_observation_quantiles_exact(self):
        # n=1 with low/high clamping: every quantile is the observation,
        # not a bucket bound.
        histogram = Histogram("h")
        histogram.observe(0.37)
        for fraction in (0.0, 0.5, 0.99, 1.0):
            assert histogram.quantile(fraction) == 0.37

    def test_quantile_boundaries_clamped(self):
        histogram = Histogram("h")
        histogram.observe_many([1.5, 2.5, 300.0])
        # fraction 0 can't undershoot the minimum (it returns the first
        # bucket's upper bound, clamped into the observed range)...
        assert 1.5 <= histogram.quantile(0.0) <= 2.0
        # ...and fraction 1 can't overshoot the maximum even though the
        # top bucket's upper bound is 512.
        assert histogram.quantile(1.0) == 300.0

    def test_quantile_returns_bucket_upper_bound(self):
        histogram = Histogram("h")
        histogram.observe_many([3.0] * 99 + [1000.0])
        # p50 lands in the (2,4] bucket -> bound 4.0.
        assert histogram.quantile(0.5) == 4.0

    def test_empty_quantile_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_sum_count(self):
        histogram = Histogram("h")
        histogram.observe_many([1.0, 2.0, 3.0])
        snap = histogram.snapshot()
        assert snap.count == 3
        assert snap.sum == 6.0

    def test_merge_is_bucket_addition(self):
        a = Histogram("h")
        b = Histogram("h")
        both = Histogram("h")
        # Exactly representable values so sums are order-independent.
        for value in (0.125, 0.25, 7.0):
            a.observe(value)
            both.observe(value)
        for value in (0.5, 9.0, 1e6):
            b.observe(value)
            both.observe(value)
        merged = a.snapshot().merge(b.snapshot())
        assert merged == both.snapshot()

    def test_merge_associative(self):
        snaps = []
        for seed in range(3):
            histogram = Histogram("h")
            histogram.observe_many([0.001 * (seed + 1) * k for k in range(1, 20)])
            snaps.append(histogram.snapshot())
        a, b, c = snaps
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    def test_merge_with_empty_is_identity(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        snap = histogram.snapshot()
        empty = HistogramSnapshot()
        assert snap.merge(empty) == snap
        assert empty.merge(snap) == snap


class TestMetricsSnapshot:
    def make(self, offset):
        histogram = Histogram("latency")
        histogram.observe_many([0.1 + offset, 0.2 + offset])
        return MetricsSnapshot(
            counters={"packets_total": 10 + offset},
            gauges={"depth": 2.0 + offset},
            histograms={"latency": histogram.snapshot()},
        )

    def test_merge_sums_everything(self):
        merged = self.make(0).merge(self.make(1))
        assert merged.counters["packets_total"] == 21
        assert merged.gauges["depth"] == 5.0
        assert merged.histograms["latency"].count == 4

    def test_add_operator_is_merge(self):
        assert self.make(0) + self.make(1) == self.make(0).merge(self.make(1))

    def test_merge_associative(self):
        a, b, c = self.make(0), self.make(1), self.make(2)
        assert (a + b) + c == a + (b + c)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("a_total") is registry.counter("a_total")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_labels_fold_into_name(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total", labels=(("key", "FIB"),))
        counter.inc(3)
        snap = registry.snapshot()
        assert snap.counters['ops_total{key="FIB"}'] == 3

    def test_label_variants_are_distinct(self):
        registry = MetricsRegistry()
        a = registry.counter("ops_total", labels=(("key", "FIB"),))
        b = registry.counter("ops_total", labels=(("key", "PIT"),))
        assert a is not b

    def test_snapshot_covers_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snap = registry.snapshot()
        assert snap.counters == {"c_total": 1}
        assert snap.gauges == {"g": 1.5}
        assert snap.histograms["h"].count == 1

    def test_registry_is_truthy(self):
        assert MetricsRegistry()


class TestHistogramExtremeMerge:
    def test_clamped_buckets_still_merge(self):
        a = Histogram("h")
        a.observe(0.0)  # clamps to MIN_EXP
        b = Histogram("h")
        b.observe(1e12)  # clamps to MAX_EXP
        merged = a.snapshot().merge(b.snapshot())
        assert merged.count == 2
        exponents = [exponent for exponent, _ in merged.buckets]
        assert exponents == [MIN_EXP, MAX_EXP]


@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 0.99, 1.0])
def test_histogram_quantile_within_observed_range(fraction):
    histogram = Histogram("h")
    histogram.observe_many([0.013, 0.9, 2.2, 17.0, 130.0])
    estimate = histogram.quantile(fraction)
    assert 0.013 <= estimate <= 130.0
