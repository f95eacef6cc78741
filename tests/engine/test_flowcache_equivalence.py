"""The flow decision cache must be decision-invisible.

Three families of guarantees:

- **equivalence** -- with a cache attached, ``process_batch`` returns
  field-for-field identical ``ProcessResult``s (decision, ports,
  rewritten packet, notes, *model cycles*, scratch) across all five
  paper protocol compositions, under eviction pressure, and through
  the full engine;
- **classification** -- stateful programs (NDN PIT/CS, the OPT MAC
  chain) are counted as bypasses and never populate the cache; pure
  IP-forwarding programs hit after warmup;
- **staleness** -- mutating the registry, a FIB, or node state between
  ``process_batch`` calls *and between packets of one batch* never
  serves a stale decision.
"""

import pytest

from repro.core.flowcache import FlowDecisionCache
from repro.core.fn import OperationKey
from repro.core.processor import Decision, RouterProcessor
from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.engine import EngineConfig, ForwardingEngine
from repro.realize.ip import build_ipv4_packet
from repro.workloads.generators import (
    make_dip_ipv4_workload,
    make_dip_ipv4_zipf_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_ndn_opt_workload,
    make_opt_workload,
)
from repro.workloads.throughput import dip32_state_factory

PURE_MAKERS = [
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
]
STATEFUL_MAKERS = [
    make_ndn_interest_workload,
    make_opt_workload,
    make_ndn_opt_workload,
]
ALL_MAKERS = PURE_MAKERS + STATEFUL_MAKERS

ROUNDS = 3
COUNT = 80


def run_rounds(maker, capacity):
    """(reference results, cached results, cache) over ROUNDS rounds."""
    cost_model = CycleCostModel()
    reference = maker(packet_count=COUNT, seed=5, cost_model=cost_model)
    cached = maker(packet_count=COUNT, seed=5, cost_model=cost_model)
    cache = FlowDecisionCache(capacity=capacity)
    cached.processor.flow_cache = cache
    ref_results, got_results = [], []
    for round_number in range(ROUNDS):
        now = float(round_number)
        ref_results += reference.processor.process_batch(
            list(reference.packets), collect_notes=True, now=now
        )
        got_results += cached.processor.process_batch(
            list(cached.packets), collect_notes=True, now=now
        )
    return ref_results, got_results, cache


class TestCompositionEquivalence:
    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_field_for_field_identical(self, maker):
        expected, got, _ = run_rounds(maker, capacity=4096)
        assert got == expected

    @pytest.mark.parametrize("maker", ALL_MAKERS)
    def test_identical_under_eviction_pressure(self, maker):
        expected, got, cache = run_rounds(maker, capacity=2)
        assert got == expected
        assert len(cache) <= 2

    def test_raw_bytes_input(self):
        workload = make_dip_ipv4_workload(packet_count=60, seed=9)
        raw = [packet.encode() for packet in workload.packets]
        reference = RouterProcessor(dip32_state_factory(seed=9))
        cached = RouterProcessor(
            dip32_state_factory(seed=9),
            flow_cache=FlowDecisionCache(capacity=1024),
        )
        for _ in range(2):
            assert cached.process_batch(raw, collect_notes=True) == (
                reference.process_batch(raw, collect_notes=True)
            )
        assert cached.flow_cache.hits > 0

    @pytest.mark.parametrize("kind", ["raw", "packets", "interleaved"])
    def test_input_kind_is_invisible(self, kind):
        """One stream fed as wire bytes, as ``DipPacket``s, or mixed:
        same results and same hit/miss/bypass accounting -- both input
        kinds go through one cache front."""
        # Pure flows (repeat -> hits), a stateful program and an
        # expired hop limit (both bypass), in one stream.
        stream = list(make_dip_ipv4_zipf_workload(packet_count=40, seed=9).packets)
        stream += make_ndn_interest_workload(packet_count=6, seed=9).packets
        stream.append(build_ipv4_packet(0x0A000001, 1, hop_limit=0))
        fed = [
            packet
            if kind == "packets" or (kind == "interleaved" and index % 2)
            else packet.encode()
            for index, packet in enumerate(stream)
        ]
        cost_model = CycleCostModel()
        reference = RouterProcessor(
            dip32_state_factory(seed=9), cost_model=cost_model
        )
        cache = FlowDecisionCache(capacity=1024)
        cached = RouterProcessor(
            dip32_state_factory(seed=9), cost_model=cost_model, flow_cache=cache
        )
        for _ in range(2):
            assert cached.process_batch(fed, collect_notes=True) == (
                reference.process_batch(stream, collect_notes=True)
            )
        flows = len({packet.header.locations for packet in stream[:40]})
        assert (cache.hits, cache.misses, cache.bypasses) == (
            2 * 40 - flows, flows, 2 * 7
        )

    def test_engine_outcomes_identical(self):
        packets = [
            packet.encode()
            for packet in make_dip_ipv4_zipf_workload(
                packet_count=300, seed=7
            ).packets
        ]
        plain = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(num_shards=3),
        ).run(packets)
        cached_engine = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(num_shards=3, flow_cache=True),
        )
        first = cached_engine.run(packets)
        second = cached_engine.run(packets)  # steady state: pure hits
        for report in (first, second):
            assert report.outcomes == plain.outcomes
        assert plain.flow_cache is None
        assert first.flow_cache.misses > 0
        assert second.flow_cache.hits == len(packets)
        assert second.flow_cache.misses == 0


class TestClassification:
    @pytest.mark.parametrize("maker", STATEFUL_MAKERS)
    def test_stateful_programs_bypass(self, maker):
        _, _, cache = run_rounds(maker, capacity=4096)
        stats = cache.stats()
        assert stats.bypasses == ROUNDS * COUNT
        assert stats.hits == 0
        assert stats.misses == 0
        assert stats.size == 0  # never populated

    @pytest.mark.parametrize("maker", PURE_MAKERS)
    def test_pure_programs_hit_after_warmup(self, maker):
        _, _, cache = run_rounds(maker, capacity=4096)
        stats = cache.stats()
        assert stats.bypasses == 0
        # Round one misses per distinct flow; rounds two and three are
        # all hits (every flow re-appears verbatim).
        assert stats.misses == stats.size
        assert stats.hits == ROUNDS * COUNT - stats.misses
        assert stats.hits >= 2 * COUNT

    def test_hop_limit_zero_bypasses(self):
        cache = FlowDecisionCache(capacity=16)
        processor = RouterProcessor(
            dip32_state_factory(), flow_cache=cache
        )
        packet = build_ipv4_packet(0x0A000001, 1, hop_limit=0)
        result = processor.process_batch([packet])[0]
        assert result.decision is Decision.DROP
        assert cache.bypasses == 1
        assert len(cache) == 0


def make_state():
    state = NodeState(node_id="stale")
    state.fib_v4.insert(0x0A000000, 8, 2)
    return state


def reference_result(state_mutator, packet):
    """What a cache-less processor answers after the mutation."""
    state = make_state()
    processor = RouterProcessor(state)
    state_mutator(processor)
    return processor.process(packet)


class TestStaleness:
    """No mutation may ever be answered with a pre-mutation decision."""

    PACKET = build_ipv4_packet(0x0A000001, 7)

    def check_between_batches(self, mutate):
        cache = FlowDecisionCache(capacity=64)
        processor = RouterProcessor(make_state(), flow_cache=cache)
        # Warm the cache: decision comes from the old state.
        for _ in range(2):
            processor.process_batch([self.PACKET], collect_notes=True)
        assert cache.hits >= 1
        mutate(processor)
        after = processor.process_batch([self.PACKET], collect_notes=True)[0]
        assert after == reference_result(mutate, self.PACKET)
        assert cache.invalidations >= 1
        return after

    def test_fib_insert_between_batches(self):
        def mutate(processor):
            processor.state.fib_v4.insert(0x0A000000, 16, 5)

        after = self.check_between_batches(mutate)
        assert after.ports == (5,)

    def test_fib_remove_between_batches(self):
        def mutate(processor):
            processor.state.fib_v4.remove(0x0A000000, 8)

        after = self.check_between_batches(mutate)
        assert after.decision is Decision.DROP

    def test_registry_mutation_between_batches(self):
        def mutate(processor):
            processor.registry.unregister(OperationKey.MATCH_32)

        after = self.check_between_batches(mutate)
        assert after.decision is Decision.DROP

    def test_local_delivery_between_batches(self):
        def mutate(processor):
            processor.state.add_local_v4(0x0A000001)

        after = self.check_between_batches(mutate)
        assert after.decision is Decision.DELIVER

    def test_default_port_between_batches(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        # A program with no forwarding FN: its fate is the static
        # egress fallback, which reads default_port directly.
        header = DipHeader(
            fns=(FieldOperation(0, 32, OperationKey.SOURCE),),
            locations=bytes(4),
        )
        packet = DipPacket(header=header)
        cache = FlowDecisionCache(capacity=64)
        processor = RouterProcessor(make_state(), flow_cache=cache)
        for _ in range(2):
            assert (
                processor.process_batch([packet])[0].decision
                is Decision.DROP
            )
        assert cache.hits == 1
        processor.state.default_port = 3
        after = processor.process_batch([packet])[0]
        assert after.decision is Decision.FORWARD
        assert after.ports == (3,)

    def test_bump_generation_between_batches(self):
        def mutate(processor):
            # Direct slot mutation + the documented manual bump.
            processor.state.fib_v4 = type(processor.state.fib_v4)(32)
            processor.state.bump_generation()

        after = self.check_between_batches(mutate)
        assert after.decision is Decision.DROP

    def test_mutation_between_packets_of_one_batch(self):
        """A generator that edits the FIB mid-batch: hits must stop."""
        cache = FlowDecisionCache(capacity=64)
        processor = RouterProcessor(make_state(), flow_cache=cache)
        processor.process_batch([self.PACKET, self.PACKET])
        assert cache.hits == 1

        def stream():
            yield self.PACKET  # served under the old state
            processor.state.fib_v4.insert(0x0A000000, 16, 5)
            yield self.PACKET  # must see the new route

        results = processor.process_batch(stream())
        assert results[0].ports == (2,)
        assert results[1].ports == (5,)
        # And the same reversal back out.
        def stream_back():
            yield self.PACKET
            processor.state.fib_v4.remove(0x0A000000, 16)
            yield self.PACKET

        results = processor.process_batch(stream_back())
        assert results[0].ports == (5,)
        assert results[1].ports == (2,)

    @pytest.mark.parametrize("cached", [True, False])
    def test_registry_mutation_between_packets_of_one_batch(self, cached):
        """A generator that unregisters a module mid-batch: the next
        packet must be walked over a freshly lowered program, with or
        without a flow cache in front."""
        processor = RouterProcessor(
            make_state(),
            flow_cache=FlowDecisionCache(capacity=64) if cached else None,
        )
        processor.process_batch([self.PACKET, self.PACKET])

        def stream():
            yield self.PACKET  # walked with F_32_match installed
            processor.registry.unregister(OperationKey.MATCH_32)
            yield self.PACKET  # must see the module gone

        results = processor.process_batch(stream())
        assert results[0].ports == (2,)
        assert results[1].decision is Decision.DROP

    def test_invalidate_program_cache_flushes(self):
        cache = FlowDecisionCache(capacity=64)
        processor = RouterProcessor(make_state(), flow_cache=cache)
        processor.process_batch([self.PACKET, self.PACKET])
        assert len(cache) == 1
        processor.invalidate_program_cache()
        assert len(cache) == 0
