"""A zero-packet run reports explicit zeros (satellite of the serve PR).

The serving daemon folds every flush into an accumulator seeded with
``EngineReport.empty()``; an idle daemon therefore summarizes from
this exact shape, so every counter must be a real 0 and every rate a
real 0.0 -- never a division by packet count or wall time."""

import dataclasses
import json

from repro.engine import EngineConfig, EngineReport, ForwardingEngine

from tests.engine.support import build_mixed_packets, engine_state_factory


def test_zero_packet_run_reports_explicit_zeros():
    engine = ForwardingEngine(
        engine_state_factory, config=EngineConfig(num_shards=2)
    )
    report = engine.run([])
    assert report.packets_offered == 0
    assert report.packets_processed == 0
    assert report.packets_dropped_backpressure == 0
    assert report.dead_letter_total == 0
    assert report.packets_shed == 0
    assert report.packets_unaccounted == 0
    assert report.pkts_per_second == 0.0
    assert report.batch_latency_p50 == 0.0
    assert report.batch_latency_p99 == 0.0
    assert report.decisions == {}
    assert report.outcomes == ()
    snapshot = report.snapshot()
    assert snapshot.counters["engine_packets_offered_total"] == 0
    assert snapshot.counters["engine_shed_total"] == 0


def test_empty_is_the_merge_identity():
    empty = EngineReport.empty()
    for field in dataclasses.fields(EngineReport):
        value = getattr(empty, field.name)
        assert not value, f"{field.name} is not falsy in empty()"
    engine = ForwardingEngine(
        engine_state_factory, config=EngineConfig(num_shards=2)
    )
    report = engine.run(build_mixed_packets())
    # merge folds the ledger only; per-run detail comes back empty.
    ledger = dataclasses.replace(
        report,
        outcomes=(),
        shards=(),
        rings=(),
        dead_letter=(),
        batch_latency_p50=0.0,
        batch_latency_p99=0.0,
    )
    assert empty.merge(report) == ledger
    assert report.merge(empty) == ledger
    assert empty.merge(empty) == empty


def test_report_dict_round_trip_keeps_shed():
    report = dataclasses.replace(EngineReport.empty(), packets_shed=7)
    data = json.loads(json.dumps(report.to_dict()))
    assert data["packets_shed"] == 7
    assert report.packets_unaccounted == -7  # shed without offers
