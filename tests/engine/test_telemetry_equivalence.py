"""Telemetry must be observation-only: on or off, same results.

Two families:

- **processor equivalence** -- a :class:`RouterProcessor` with a live
  registry returns field-for-field identical ``ProcessResult``s
  (decision, ports, rewritten packet, notes, model cycles) across all
  five paper protocol compositions, while actually populating the
  registry;
- **engine equivalence** -- a telemetry-enabled
  :class:`ForwardingEngine` produces the same per-packet outcomes as a
  disabled one, records stage spans, and the disabled engine and its
  shard workers carry no registry (``metrics is None``, none on any
  processor) and only the falsy null tracer.
"""

import gc

import pytest

from repro.core.flowcache import FlowDecisionCache
from repro.core.processor import RouterProcessor
from repro.dataplane.costs import CycleCostModel
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.columnar import ColumnarSpecializer
from repro.engine.workers import ShardWorker
from repro.realize.ip import build_ipv4_packet
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import NULL_TRACER
from repro.workloads.generators import (
    make_dip_ipv4_workload,
    make_dip_ipv4_zipf_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_ndn_opt_workload,
    make_opt_workload,
)
from repro.workloads.throughput import dip32_state_factory

ALL_MAKERS = [
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_opt_workload,
    make_ndn_opt_workload,
]

ROUNDS = 2
COUNT = 60


def run_both(maker):
    """(plain results, instrumented results, registry) over ROUNDS."""
    cost_model = CycleCostModel()
    plain = maker(packet_count=COUNT, seed=11, cost_model=cost_model)
    instrumented = maker(packet_count=COUNT, seed=11, cost_model=cost_model)
    registry = MetricsRegistry()
    watched = RouterProcessor(
        instrumented.processor.state,
        cost_model=cost_model,
        telemetry=registry,
    )
    plain_results, watched_results = [], []
    for round_number in range(ROUNDS):
        now = float(round_number)
        plain_results += plain.processor.process_batch(
            list(plain.packets), collect_notes=True, now=now
        )
        watched_results += watched.process_batch(
            list(instrumented.packets), collect_notes=True, now=now
        )
    return plain_results, watched_results, registry


class TestProcessorEquivalence:
    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_results_identical_with_telemetry_on(self, maker):
        plain, watched, _ = run_both(maker)
        assert watched == plain

    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_registry_actually_populated(self, maker):
        _, _, registry = run_both(maker)
        snap = registry.snapshot()
        ops = {
            name: value
            for name, value in snap.counters.items()
            if name.startswith("processor_fn_ops_total")
        }
        assert sum(ops.values()) > 0
        decisions = sum(
            value
            for name, value in snap.counters.items()
            if name.startswith("processor_decisions_total")
        )
        assert decisions == ROUNDS * COUNT
        cycles = snap.histograms["processor_fn_cycles"]
        assert cycles.count == ROUNDS * COUNT

    def test_cycle_histogram_mean_matches_results(self):
        plain, _, registry = run_both(make_dip_ipv4_workload)
        cycles = registry.snapshot().histograms["processor_fn_cycles"]
        assert cycles.sum == pytest.approx(
            sum(result.cycles for result in plain)
        )


def processor_metrics(registry):
    """(op counts, decision counts, cycles count, cycles sum) recorded."""
    snap = registry.snapshot()
    cycles = snap.histograms["processor_fn_cycles"]
    return (
        {
            name.partition("key=")[2].strip('"}'): value
            for name, value in snap.counters.items()
            if name.startswith("processor_fn_ops_total") and value
        },
        {
            name.partition("decision=")[2].strip('"}'): value
            for name, value in snap.counters.items()
            if name.startswith("processor_decisions_total") and value
        },
        cycles.count,
        cycles.sum,
    )


class TestWhatIsRecorded:
    """Telemetry counts walks: what ``walk`` or a kernel decided, once."""

    def test_process_records_nothing(self):
        registry = MetricsRegistry()
        processor = RouterProcessor(
            dip32_state_factory(), cost_model=CycleCostModel(),
            telemetry=registry,
        )
        for packet in make_dip_ipv4_workload(packet_count=5, seed=3).packets:
            processor.process(packet)
            processor.process(packet.encode())
        # Nothing may be left pending for the next batch's flush either.
        processor.process_batch([])
        assert processor_metrics(registry) == ({}, {}, 0, 0)

    def test_mixed_batch_counts(self):
        """One batch through every way a packet can be decided."""
        registry = MetricsRegistry()
        processor = RouterProcessor(
            dip32_state_factory(),
            cost_model=CycleCostModel(),
            flow_cache=FlowDecisionCache(capacity=64),
            telemetry=registry,
            quarantine=True,
        )
        pure = make_dip_ipv4_workload(packet_count=6, seed=7).packets
        stateful = make_ndn_interest_workload(packet_count=2, seed=7).packets
        expired = build_ipv4_packet(0x0A000001, 1, hop_limit=0)
        batch = [
            pure[0],             # DipPacket: scalar path, cache miss, walked
            pure[0],             # same again: cache hit, not a walk
            pure[1].encode(),    # wire bytes of a pure program: kernel
            pure[2].encode(),
            pure[3].encode(),
            expired.encode(),    # kernel's hop-expired row
            expired,             # scalar: bypass, walked (hop expired)
            stateful[0].encode(),  # impure: kernel refuses, bypass, walked
            stateful[1],
            pure[4].encode()[:9],  # truncated: quarantined, not a walk
        ]
        results = ColumnarSpecializer(processor).process_batch(batch)
        assert [result.decision.value for result in results[-3:]] == [
            "drop", "drop", "error",
        ]
        ops, decisions, count, total = processor_metrics(registry)
        # 6 walks of the 2-FN IPv4 program (miss, 3 kernel rows, 2 hop
        # -expired: program-attributed), 2 of the 1-FN NDN program.
        assert ops == {"MATCH_32": 6, "SOURCE": 6, "FIB": 2}
        # Drops: 2 hop-expired + 2 unrouted names.  (Counts and cycle
        # sum are the ones the pre-merge code paths recorded.)
        assert decisions == {"forward": 4, "drop": 4}
        assert count == 8
        walked = [results[i] for i in (0, 2, 3, 4, 5, 6, 7, 8)]
        assert total == sum(result.cycles for result in walked)
        cache = processor.flow_cache
        assert (cache.hits, cache.misses, cache.bypasses) == (1, 1, 3)


class TestEngineEquivalence:
    def packets(self):
        return [
            packet.encode()
            for packet in make_dip_ipv4_zipf_workload(
                packet_count=250, seed=3
            ).packets
        ]

    def run_engine(self, telemetry, flow_cache=False):
        engine = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(
                num_shards=3, telemetry=telemetry, flow_cache=flow_cache
            ),
        )
        return engine, engine.run(self.packets())

    def test_outcomes_identical(self):
        _, plain = self.run_engine(telemetry=False)
        _, watched = self.run_engine(telemetry=True)
        assert watched.outcomes == plain.outcomes
        assert watched.decisions == plain.decisions

    def test_outcomes_identical_with_flow_cache(self):
        _, plain = self.run_engine(telemetry=False, flow_cache=True)
        _, watched = self.run_engine(telemetry=True, flow_cache=True)
        assert watched.outcomes == plain.outcomes
        assert watched.flow_cache == plain.flow_cache

    def test_enabled_engine_records_everything(self):
        engine, report = self.run_engine(telemetry=True, flow_cache=True)
        snap = engine.metrics.snapshot()
        assert snap.counters["engine_packets_processed_total"] == 250
        latency = snap.histograms["engine_batch_latency_seconds"]
        assert latency.count == sum(shard.batches for shard in report.shards)
        # Quantiles from the histogram agree with the report's
        # nearest-rank values to within one log2 bucket.
        assert latency.quantile(0.99) >= report.batch_latency_p50
        assert snap.counters["flowcache_misses_total"] > 0
        span_names = {span.name for span in engine.tracer.spans}
        assert {"engine.run", "shard.walk", "shard.emit"} <= span_names

    def test_report_gauges_share_the_registry_names(self):
        """Every gauge of a run's report is in the registry, under the
        same name and with the same value."""
        engine, report = self.run_engine(telemetry=True, flow_cache=True)
        registry = engine.metrics.snapshot()
        gauges = report.snapshot().gauges
        assert 'engine_ring_occupancy_high_watermark{shard="0"}' in gauges
        for name, value in gauges.items():
            assert registry.gauges.get(name) == value, name

    def test_disabled_engine_is_null(self):
        engine, _ = self.run_engine(telemetry=False)
        assert engine.metrics is None
        assert not engine.tracer
        assert len(engine.tracer) == 0

    def test_disabled_engine_allocates_no_telemetry(self):
        """The disabled engine and every shard worker hold only the
        shared null tracer, and no processor carries a registry."""
        engine, _ = self.run_engine(telemetry=False)
        assert engine.metrics is None
        assert engine.tracer is NULL_TRACER
        # The workers sit behind the transport seam; find them by the
        # shard state the public accessor hands out.
        states = [engine.shard_state(shard) for shard in range(3)]
        workers = [
            candidate
            for candidate in gc.get_objects()
            if isinstance(candidate, ShardWorker)
            and any(candidate.processor.state is state for state in states)
        ]
        assert len(workers) == 3
        for worker in workers:
            assert worker.tracer is NULL_TRACER
            assert worker.processor.telemetry is None

    def test_second_run_accumulates(self):
        engine, _ = self.run_engine(telemetry=True)
        engine.run(self.packets())
        snap = engine.metrics.snapshot()
        assert snap.counters["engine_packets_processed_total"] == 500
