"""``EngineReport.merge`` folds the ledgers of sequential runs.

Its two callers (the serving daemon's per-flush accumulator and the
attack engine arm) fold runs that happened one after the other, so
counters and ``wall_seconds`` sum and ``pkts_per_second`` is the rate
over the combined wall time.  Per-run detail is not folded.
"""

import pytest

from repro.core.flowcache import FlowCacheStats
from repro.core.operations.base import Decision
from repro.engine.engine import (
    DeadLetter,
    EngineReport,
    PacketOutcome,
    ShardReport,
)
from repro.engine.rings import RingStats


def make_flowcache_stats(i=0):
    return FlowCacheStats(
        hits=10 + i, misses=2 + i, bypasses=1, evictions=i,
        invalidations=0, size=4, capacity=64,
    )


def make_engine_report(i=0):
    return EngineReport(
        packets_offered=100 + i,
        packets_processed=97 + i,
        packets_dropped_backpressure=2,
        wall_seconds=0.25 + i,
        decisions={"forward": 90 + i, "drop": 7},
        batch_latency_p50=0.001,
        batch_latency_p99=0.004 + i,
        shards=(
            ShardReport(
                shard_id=0, packets=97 + i, batches=3 + i,
                busy_seconds=0.5 + i, utilization=0.25,
            ),
        ),
        rings=(
            RingStats(
                capacity=64, enqueued=98 + i, dropped=2, high_watermark=7 + i
            ),
        ),
        outcomes=(
            PacketOutcome(Decision.FORWARD, (1,), b"\x00\x01", 0),
            None,
            PacketOutcome(Decision.DROP),
        ),
        flow_cache=make_flowcache_stats(i),
        retries=1,
        dead_letter_total=1,
        dead_letter=(DeadLetter(index=5, shard=0, reason="x", attempts=3),),
    )


class TestEngineReportMerge:
    def test_merge_sums_the_ledger_and_drops_per_run_detail(self):
        a, b = make_engine_report(0), make_engine_report(1)
        merged = a.merge(b)
        assert merged.packets_offered == 201
        assert merged.packets_processed == 195
        assert merged.retries == 2
        assert merged.dead_letter_total == 2
        assert merged.packets_unaccounted == 0
        assert merged.decisions == {"forward": 181, "drop": 14}
        assert merged.flow_cache.hits == 21  # (10+0) + (10+1)
        assert merged.outcomes == ()
        assert merged.shards == ()
        assert merged.rings == ()
        assert merged.dead_letter == ()
        assert merged.batch_latency_p50 == merged.batch_latency_p99 == 0.0

    def test_wall_sums_and_rate_is_over_the_sum(self):
        a, b = make_engine_report(0), make_engine_report(1)
        merged = a.merge(b)
        assert merged.wall_seconds == pytest.approx(1.5)
        assert merged.pkts_per_second == pytest.approx(195 / 1.5)
        assert merged.to_dict()["pkts_per_second"] == merged.pkts_per_second

    def test_merge_with_cacheless_report(self):
        plain = EngineReport(
            packets_offered=1, packets_processed=1,
            packets_dropped_backpressure=0, wall_seconds=0.1, decisions={},
        )
        merged = plain.merge(make_engine_report())
        assert merged.flow_cache == make_flowcache_stats()

    def test_snapshot_labels_shards(self):
        snap = make_engine_report().snapshot()
        assert 'engine_shard_packets_total{shard="0"}' in snap.counters
        assert 'engine_ring_enqueued_total{shard="0"}' in snap.counters
        assert (
            'engine_ring_occupancy_high_watermark{shard="0"}' in snap.gauges
        )
        assert 'engine_shard_busy_seconds{shard="0"}' in snap.gauges
        assert "flowcache_hits_total" in snap.counters
        assert not any("latency" in name for name in snap.gauges)
