"""The unified stats surface across the four legacy stats types.

Every type that reports operational counters -- ``RingStats``,
``ShardReport``/``EngineReport``, ``FlowCacheStats``, ``NodeStats`` --
now conforms to :class:`repro.telemetry.Instrumented`: ``snapshot()``
returns the mergeable :class:`MetricsSnapshot`, ``to_dict``/
``from_dict`` round-trip, and ``merge`` is associative.  These tests
pin that contract type by type, plus the ``TraceRecorder``-as-Tracer
compatibility the netsim relies on.
"""

import pytest

from repro.core.flowcache import FlowCacheStats
from repro.core.operations.base import Decision
from repro.engine.engine import EngineReport, PacketOutcome, ShardReport
from repro.engine.rings import Ring, RingStats
from repro.netsim.stats import NodeStats, TraceRecorder
from repro.telemetry.metrics import Instrumented, MetricsSnapshot
from repro.telemetry.tracing import Tracer


def make_ring_stats(i=0):
    return RingStats(
        capacity=64 + i, enqueued=100 + i, dropped=i, high_watermark=7 + i
    )


def make_shard_report(i=0):
    return ShardReport(
        shard_id=i,
        packets=50 + i,
        batches=3 + i,
        busy_seconds=0.5 + i,
        utilization=0.25,
    )


def make_flowcache_stats(i=0):
    return FlowCacheStats(
        hits=10 + i, misses=2 + i, bypasses=1, evictions=i,
        invalidations=0, size=4, capacity=64,
    )


def make_node_stats(i=0):
    return NodeStats(
        received=9 + i, forwarded=5, delivered=2, dropped=1 + i,
        unsupported=0, control_sent=1,
    )


def make_engine_report(i=0):
    return EngineReport(
        packets_offered=100 + i,
        packets_processed=98 + i,
        packets_dropped_backpressure=2,
        wall_seconds=0.25 + i,
        pkts_per_second=(98.0 + i) / (0.25 + i),
        decisions={"forward": 90 + i, "drop": 8},
        batch_latency_p50=0.001,
        batch_latency_p99=0.004 + i,
        shards=(make_shard_report(i),),
        rings=(make_ring_stats(i),),
        outcomes=(
            PacketOutcome(Decision.FORWARD, (1,), b"\x00\x01", 0),
            None,
            PacketOutcome(Decision.DROP),
        ),
        flow_cache=make_flowcache_stats(i),
    )


MAKERS = [
    make_ring_stats,
    make_shard_report,
    make_flowcache_stats,
    make_node_stats,
    make_engine_report,
]


@pytest.mark.parametrize("maker", MAKERS)
class TestUnifiedSurface:
    def test_conforms_to_protocol(self, maker):
        assert isinstance(maker(), Instrumented)

    def test_snapshot_is_metrics_snapshot(self, maker):
        snap = maker().snapshot()
        assert isinstance(snap, MetricsSnapshot)
        assert snap.counters or snap.gauges

    def test_round_trip_dict(self, maker):
        original = maker(2)
        restored = type(original).from_dict(original.to_dict())
        assert restored == original

    def test_dict_is_json_safe(self, maker):
        import json

        json.dumps(maker().to_dict())

    def test_merge_associative(self, maker):
        a, b, c = maker(0), maker(1), maker(2)
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        # EngineReport.pkts_per_second is recomputed per merge and the
        # division order can differ in the last ulp; compare via dicts
        # with that field checked approximately.
        if isinstance(a, EngineReport):
            ld, rd = left.to_dict(), right.to_dict()
            assert ld.pop("pkts_per_second") == pytest.approx(
                rd.pop("pkts_per_second")
            )
            assert ld == rd
        else:
            assert left == right

    def test_snapshot_of_merge_counts_add(self, maker):
        a, b = maker(0), maker(1)
        merged_counters = a.merge(b).snapshot().counters
        summed = dict(a.snapshot().counters)
        for name, value in b.snapshot().counters.items():
            summed[name] = summed.get(name, 0) + value
        # Per-shard labeled counters aside (shard ids change under
        # merge for ShardReport/EngineReport), unlabeled totals add.
        for name, value in merged_counters.items():
            if "{" not in name:
                assert value == summed[name], name


class TestRingStatsMerge:
    def test_high_watermark_takes_max(self):
        merged = make_ring_stats(0).merge(make_ring_stats(5))
        assert merged.high_watermark == 12  # max(7, 12)
        assert merged.enqueued == 205  # 100 + 105

    def test_live_ring_snapshot(self):
        ring = Ring(4)
        ring.push("a")
        ring.push("b")
        snap = ring.stats().snapshot()
        assert snap.counters["ring_enqueued_total"] == 2
        assert snap.gauges["ring_high_watermark"] == 2


class TestShardReportMerge:
    def test_differing_shard_ids_merge_to_sentinel(self):
        merged = make_shard_report(0).merge(make_shard_report(1))
        assert merged.shard_id == -1
        assert merged.packets == 101

    def test_same_shard_id_is_kept(self):
        merged = make_shard_report(3).merge(make_shard_report(3))
        assert merged.shard_id == 3


class TestEngineReportMerge:
    def test_counters_sum_and_outcomes_concatenate(self):
        a, b = make_engine_report(0), make_engine_report(1)
        merged = a.merge(b)
        assert merged.packets_offered == 201
        assert merged.decisions["forward"] == 181
        assert merged.outcomes == a.outcomes + b.outcomes
        assert merged.flow_cache.hits == 21  # (10+0) + (10+1)

    def test_wall_takes_max_and_rate_recomputed(self):
        a, b = make_engine_report(0), make_engine_report(1)
        merged = a.merge(b)
        assert merged.wall_seconds == b.wall_seconds
        assert merged.pkts_per_second == pytest.approx(
            merged.packets_processed / merged.wall_seconds
        )

    def test_merge_with_cacheless_report(self):
        plain = EngineReport(
            packets_offered=1, packets_processed=1,
            packets_dropped_backpressure=0, wall_seconds=0.1,
            pkts_per_second=10.0, decisions={}, batch_latency_p50=0.0,
            batch_latency_p99=0.0,
        )
        merged = plain.merge(make_engine_report())
        assert merged.flow_cache == make_flowcache_stats()

    def test_snapshot_labels_shards(self):
        snap = make_engine_report().snapshot()
        assert 'engine_shard_packets_total{shard="0"}' in snap.counters
        assert 'engine_ring_enqueued_total{shard="0"}' in snap.counters
        assert "flowcache_hits_total" in snap.counters


class TestTraceRecorderIsTracer:
    def test_is_a_tracer_with_legacy_views(self):
        recorder = TraceRecorder()
        assert isinstance(recorder, Tracer)
        recorder.record(1.0, "r1", "forward", detail="port 2")
        recorder.record(2.0, "r2", "drop")
        assert len(recorder.spans) == 2
        events = recorder.events
        assert events[0].node_id == "r1"
        assert events[0].event == "forward"
        assert events[0].detail == "port 2"
        assert [e.event for e in recorder.of_kind("drop")] == ["drop"]
        assert [e.node_id for e in recorder.at_node("r2")] == ["r2"]

    def test_disabled_recorder_drops_events(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record(1.0, "r1", "forward")
        assert recorder.events == ()

    def test_sim_events_export_as_spans(self, tmp_path):
        from repro.telemetry.export import read_trace_jsonl, write_trace_jsonl

        recorder = TraceRecorder()
        recorder.record(1.5, "r1", "forward", detail="p")
        path = tmp_path / "sim.jsonl"
        write_trace_jsonl(recorder.spans, str(path))
        (span,) = read_trace_jsonl(str(path))
        assert span.name == "forward"
        assert span.start == 1.5
        assert span.duration == 0.0
        assert span.attrs == {"node": "r1", "detail": "p"}
