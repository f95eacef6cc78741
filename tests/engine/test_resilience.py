"""Chaos and resilience tests for the forwarding engine.

Every test here scripts faults through :mod:`repro.resilience` and
checks the supervisor's contract (DESIGN.md 3.9): worker deaths are
survived (respawn + requeue), poison packets are quarantined to one
``error`` outcome, retry budgets end in dead letters rather than
silent loss, and the conservation law

    offered == processed + dropped_backpressure + dead_letter_total

holds with every input index accounted for exactly once.
"""

import json

import pytest

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.limits import ProcessingLimits
from repro.core.operations.base import Decision
from repro.core.packet import DipPacket
from repro.core.registry import OperationRegistry, all_operations
from repro.core.state import NodeState
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.shm import leaked_segments
from repro.errors import EngineWorkerError
from repro.resilience import (
    CORRUPT,
    CRASH,
    Fault,
    FaultPlan,
    OP_EXCEPTION,
    STALL,
    TRUNCATE,
)

DEFAULT_PORT = 7


def resilience_state_factory():
    """Module-level so the multiprocessing backend can rebuild it."""
    state = NodeState(node_id="resilience", default_port=DEFAULT_PORT)
    state.fib_v4.insert(0x0A000000, 8, 2)
    return state


def limited_state_factory():
    """A node whose 2.4 budget rejects every 2-FN packet."""
    state = NodeState(node_id="limited", default_port=DEFAULT_PORT)
    state.fib_v4.insert(0x0A000000, 8, 2)
    state.limits = ProcessingLimits(max_fn_count=1)
    return state


def no_mark_registry():
    """A heterogeneously-configured node: no MARK module installed."""
    return OperationRegistry(
        tuple(op for op in all_operations() if op.key != OperationKey.MARK)
    )


def make_packets(count, seed_base=0):
    """Encoded DIP-32 packets that all hit the 10/8 route."""
    packets = []
    for index in range(count):
        header = DipHeader(
            fns=(
                FieldOperation(
                    field_loc=0, field_len=32, key=OperationKey.MATCH_32
                ),
                FieldOperation(
                    field_loc=32, field_len=32, key=OperationKey.SOURCE
                ),
            ),
            locations=(
                (0x0A000000 | (index & 0xFFFFFF)).to_bytes(4, "big")
                + (0x0B000000 | ((seed_base + index) & 0xFFFFFF)).to_bytes(
                    4, "big"
                )
            ),
        )
        packets.append(DipPacket(header=header, payload=b"pay").encode())
    return packets


def make_mark_packets(count):
    """Packets carrying a path-critical MARK FN after the forward pair."""
    packets = []
    for index in range(count):
        header = DipHeader(
            fns=(
                FieldOperation(
                    field_loc=0, field_len=32, key=OperationKey.MATCH_32
                ),
                FieldOperation(
                    field_loc=32, field_len=32, key=OperationKey.SOURCE
                ),
                FieldOperation(
                    field_loc=64, field_len=8, key=OperationKey.MARK
                ),
            ),
            locations=(
                (0x0A000000 | index).to_bytes(4, "big")
                + (0x0B000000 | index).to_bytes(4, "big")
                + b"\x00"
            ),
        )
        packets.append(DipPacket(header=header, payload=b"m").encode())
    return packets


def assert_conservation(report):
    """The resilience conservation law, plus exactly-once indexing."""
    assert report.packets_offered == (
        report.packets_processed
        + report.packets_dropped_backpressure
        + report.dead_letter_total
    )
    dead = {letter.index for letter in report.dead_letter}
    for index, outcome in enumerate(report.outcomes):
        if outcome is None:
            # Only dead-lettered or backpressure-dropped packets may
            # lack an outcome; with "block" backpressure that means
            # dead-lettered only (the record is capped, so check the
            # total when the cap was hit).
            if report.dead_letter_total == len(report.dead_letter):
                assert index in dead, f"packet {index} silently lost"
        else:
            assert index not in dead


class TestRingPushRegression:
    """batch_size > ring_capacity used to silently lose packets."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_no_loss_when_batch_exceeds_ring(self, backend):
        config = EngineConfig(
            num_shards=2,
            backend=backend,
            batch_size=8,
            ring_capacity=4,
            backpressure="block",
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        packets = make_packets(100)
        report = engine.run(packets)
        assert report.packets_processed == 100
        assert report.packets_dropped_backpressure == 0
        assert all(outcome is not None for outcome in report.outcomes)
        assert report.decisions == {"forward": 100}
        assert_conservation(report)


class TestWorkerCrashRecovery:
    def test_serial_crash_respawns_and_retries(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=0),))
        config = EngineConfig(
            num_shards=2,
            backend="serial",
            batch_size=16,
            fault_plan=plan,
            retry_backoff=0.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(120))
        assert report.packets_processed == 120
        assert report.worker_restarts == 1
        assert report.retries == 1
        assert report.faults_injected == 1
        assert report.dead_letter_total == 0
        assert all(outcome is not None for outcome in report.outcomes)
        assert_conservation(report)

    def test_process_crash_zero_loss(self):
        # Acceptance: kill one shard worker mid-run (process backend);
        # the run completes with zero lost packets, and the crashed
        # child (os._exit, no cleanup hooks) leaks no shm segments --
        # the parent owns every unlink.
        segments_before = leaked_segments()
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=1),))
        config = EngineConfig(
            num_shards=2,
            backend="process",
            batch_size=16,
            fault_plan=plan,
            retry_backoff=0.0,
            worker_timeout=30.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        packets = make_packets(200)
        report = engine.run(packets)
        assert report.packets_processed == 200
        assert report.packets_dropped_backpressure == 0
        assert report.dead_letter_total == 0
        assert report.worker_restarts == 1
        assert report.retries >= 1
        assert report.faults_injected == 1
        assert all(outcome is not None for outcome in report.outcomes)
        assert report.decisions == {"forward": 200}
        assert_conservation(report)
        assert leaked_segments() == segments_before

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_crash_every_batch_dead_letters(self, backend):
        # Shard 0 never survives a batch: after max_retries the batch
        # is dead-lettered, the rest of the run is unharmed.
        segments_before = leaked_segments()
        plan = FaultPlan(
            faults=(Fault(kind=CRASH, shard=0, times=0),)
        )
        config = EngineConfig(
            num_shards=2,
            backend=backend,
            batch_size=16,
            fault_plan=plan,
            max_retries=1,
            retry_backoff=0.0,
            max_worker_restarts=64,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(80))
        assert report.dead_letter_total > 0
        assert report.packets_processed == 80 - report.dead_letter_total
        assert report.worker_restarts > 0
        for letter in report.dead_letter:
            assert letter.shard == 0
            assert letter.attempts == 2  # 1 try + max_retries retries
            assert letter.reason
        assert_conservation(report)
        assert leaked_segments() == segments_before

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_respawn_does_not_double_count_cache_gauges(self, backend):
        # The crashed shard has two incarnations in one run but only
        # ever one cache: capacity is a gauge, not a counter.
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=1),))
        config = EngineConfig(
            num_shards=2,
            backend=backend,
            batch_size=16,
            flow_cache=True,
            flow_cache_capacity=64,
            fault_plan=plan,
            retry_backoff=0.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(200))
        assert report.worker_restarts == 1
        assert report.packets_processed == 200
        cache = report.flow_cache
        assert cache.capacity == 2 * 64
        assert cache.size <= cache.capacity
        assert cache.peak_size <= cache.capacity
        assert cache.hits + cache.misses + cache.bypasses >= 200 - 16

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_restart_budget_exhaustion_raises(self, backend):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, times=0),))
        config = EngineConfig(
            num_shards=1,
            backend=backend,
            batch_size=8,
            fault_plan=plan,
            max_retries=8,
            retry_backoff=0.0,
            max_worker_restarts=0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        with pytest.raises(EngineWorkerError):
            engine.run(make_packets(8))

    @pytest.mark.slow
    def test_process_heartbeat_timeout_respawns(self):
        # A wedged (not dead) worker: the scripted stall outlives the
        # heartbeat, so the supervisor declares it dead and respawns.
        segments_before = leaked_segments()
        plan = FaultPlan(
            faults=(Fault(kind=STALL, shard=0, batch=0, delay=3.0),)
        )
        config = EngineConfig(
            num_shards=1,
            backend="process",
            batch_size=8,
            fault_plan=plan,
            worker_timeout=0.5,
            retry_backoff=0.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(16))
        assert report.packets_processed == 16
        assert report.worker_restarts >= 1
        assert all(outcome is not None for outcome in report.outcomes)
        assert_conservation(report)
        assert leaked_segments() == segments_before


class TestPoisonQuarantine:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_truncated_packet_is_quarantined(self, backend):
        plan = FaultPlan(
            faults=(Fault(kind=TRUNCATE, shard=0, batch=0, packet=0),)
        )
        config = EngineConfig(
            num_shards=1,
            backend=backend,
            batch_size=8,
            fault_plan=plan,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(24))
        errors = [
            outcome
            for outcome in report.outcomes
            if outcome is not None and outcome.decision is Decision.ERROR
        ]
        assert len(errors) == 1
        assert errors[0].reason  # the exception class name
        assert report.worker_restarts == 0
        assert report.dead_letter_total == 0
        assert report.packets_processed == 24
        assert report.faults_injected == 1
        assert_conservation(report)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_corrupt_packet_never_kills_worker(self, backend):
        plan = FaultPlan(
            faults=(Fault(kind=CORRUPT, shard=0, batch=0, packet=1),)
        )
        config = EngineConfig(
            num_shards=1, backend=backend, batch_size=8, fault_plan=plan
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(16))
        assert report.worker_restarts == 0
        assert report.packets_processed == 16
        bad = [
            outcome
            for outcome in report.outcomes
            if outcome is not None and outcome.reason is not None
        ]
        # The corrupted FN-count byte either fails the decode
        # (quarantined with a reason) or fails the walk; either way it
        # is exactly one packet and the worker survives.
        assert len(bad) == 1
        assert_conservation(report)

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_op_exception_isolated_to_one_packet(self, backend):
        plan = FaultPlan(
            faults=(Fault(kind=OP_EXCEPTION, shard=0, batch=0, packet=2),)
        )
        config = EngineConfig(
            num_shards=1, backend=backend, batch_size=8, fault_plan=plan
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(16))
        errors = [
            outcome
            for outcome in report.outcomes
            if outcome is not None and outcome.decision is Decision.ERROR
        ]
        assert len(errors) == 1
        assert errors[0].reason == "InjectedOperationError"
        assert report.worker_restarts == 0
        assert report.packets_processed == 16
        assert_conservation(report)


class TestProcessingLimits:
    """Section 2.4 budgets surface as ``limit`` failures end to end."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_limit_reason_reaches_outcomes(self, backend):
        config = EngineConfig(num_shards=2, backend=backend, batch_size=8)
        engine = ForwardingEngine(limited_state_factory, config=config)
        report = engine.run(make_packets(32))
        assert report.packets_processed == 32
        assert len(report.outcomes) == 32
        for outcome in report.outcomes:
            assert outcome is not None
            assert outcome.decision is Decision.DROP
            assert outcome.reason == "limit"
        assert_conservation(report)


class TestGracefulDegradation:
    def test_degrade_drop(self):
        config = EngineConfig(
            num_shards=2, backend="serial", batch_size=8, degrade="drop"
        )
        engine = ForwardingEngine(limited_state_factory, config=config)
        report = engine.run(make_packets(32))
        assert report.degraded == 32
        for outcome in report.outcomes:
            assert outcome.decision is Decision.DROP
            assert outcome.reason == "degraded"

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_degrade_pass_to_host(self, backend):
        # The paper's tag-bit semantics (2.4): what the router cannot
        # run, the end host gets to run -- the packet is delivered.
        config = EngineConfig(
            num_shards=2,
            backend=backend,
            batch_size=8,
            degrade="pass-to-host",
        )
        engine = ForwardingEngine(limited_state_factory, config=config)
        report = engine.run(make_packets(32))
        assert report.degraded == 32
        for outcome in report.outcomes:
            assert outcome.decision is Decision.DELIVER
            assert outcome.reason == "degraded"

    def test_degrade_best_effort_ip(self):
        # Plain-IP treatment (5 F_pass): out the default port with
        # only the hop limit rewritten.
        config = EngineConfig(
            num_shards=1,
            backend="serial",
            batch_size=8,
            degrade="best-effort-ip",
        )
        engine = ForwardingEngine(limited_state_factory, config=config)
        packets = make_packets(8)
        report = engine.run(packets)
        assert report.degraded == 8
        for raw, outcome in zip(packets, report.outcomes):
            assert outcome.decision is Decision.FORWARD
            assert outcome.ports == (DEFAULT_PORT,)
            assert outcome.reason == "degraded"
            expected = raw[:3] + bytes(((raw[3] - 1) & 0xFF,)) + raw[4:]
            assert outcome.packet == expected

    def test_degrade_unsupported_path_critical_fn(self):
        # A heterogeneously-configured node (no MARK module) degrades
        # the paper's UNSUPPORTED verdict into deliver-to-host.
        config = EngineConfig(
            num_shards=1,
            backend="serial",
            batch_size=4,
            degrade="pass-to-host",
        )
        engine = ForwardingEngine(
            resilience_state_factory,
            config=config,
            registry_factory=no_mark_registry,
        )
        report = engine.run(make_mark_packets(8))
        assert report.degraded == 8
        for outcome in report.outcomes:
            assert outcome.decision is Decision.DELIVER
            assert outcome.reason == "degraded"

    def test_no_degrade_keeps_unsupported_verdict(self):
        config = EngineConfig(num_shards=1, backend="serial", batch_size=4)
        engine = ForwardingEngine(
            resilience_state_factory,
            config=config,
            registry_factory=no_mark_registry,
        )
        report = engine.run(make_mark_packets(4))
        assert report.degraded == 0
        for outcome in report.outcomes:
            assert outcome.decision is Decision.UNSUPPORTED
            assert outcome.reason == "unsupported"


class TestReportRoundTrip:
    def test_resilience_fields_survive_dict_round_trip(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, times=0),))
        config = EngineConfig(
            num_shards=2,
            backend="serial",
            batch_size=16,
            fault_plan=plan,
            max_retries=0,
            retry_backoff=0.0,
            max_worker_restarts=64,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(64))
        assert report.dead_letter_total > 0
        data = json.loads(json.dumps(report.to_dict()))
        assert data["dead_letter_total"] == report.dead_letter_total
        assert data["worker_restarts"] == report.worker_restarts
        assert [
            (letter["index"], letter["shard"], letter["attempts"])
            for letter in data["dead_letter"]
        ] == [
            (letter.index, letter.shard, letter.attempts)
            for letter in report.dead_letter
        ]

    def test_snapshot_exports_resilience_counters(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=0),))
        config = EngineConfig(
            num_shards=2,
            backend="serial",
            batch_size=16,
            fault_plan=plan,
            retry_backoff=0.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        report = engine.run(make_packets(64))
        counters = report.snapshot().counters
        assert counters["engine_worker_restarts_total"] == 1
        assert counters["engine_retries_total"] == 1
        assert counters["resilience_faults_injected_total"] == 1
        assert counters["engine_dead_letter_total"] == 0

    def test_merge_sums_resilience_counters(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=0, batch=0),))
        config = EngineConfig(
            num_shards=2,
            backend="serial",
            batch_size=16,
            fault_plan=plan,
            retry_backoff=0.0,
        )
        engine = ForwardingEngine(resilience_state_factory, config=config)
        first = engine.run(make_packets(32))
        second = engine.run(make_packets(32, seed_base=500))
        merged = first.merge(second)
        assert merged.worker_restarts == (
            first.worker_restarts + second.worker_restarts
        )
        assert merged.faults_injected == (
            first.faults_injected + second.faults_injected
        )
        assert merged.dead_letter_total == (
            first.dead_letter_total + second.dead_letter_total
        )
        # Dead-letter records are per-run detail; merge keeps none.
        assert merged.dead_letter == ()
