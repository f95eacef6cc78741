"""Unit tests for the flow-level decision cache primitives.

The cache's correctness against the pipeline is proven end-to-end in
``tests/engine/test_flowcache_equivalence.py``; this file covers the
data structure itself -- LRU bounds, counters, token invalidation,
splice recipes, stats arithmetic -- and the purity classification the
processor derives from operation modules.
"""

import pytest

from repro.core.flowcache import (
    DEFAULT_CAPACITY,
    DecisionTemplate,
    FlowCacheStats,
    FlowDecisionCache,
    splice_spans,
    template_from_result,
)
from repro.core.registry import default_registry


def template(tag):
    """A distinguishable dummy template (contents are opaque to the cache)."""
    return DecisionTemplate(
        decision=tag,
        ports=(),
        notes=(),
        cycles=0,
        cycles_sequential=0,
        cycles_parallel=0,
        unsupported_key=None,
        scratch={},
        has_packet=False,
        loc_splices=None,
    )


class TestLru:
    def test_capacity_bound_and_eviction_order(self):
        cache = FlowDecisionCache(capacity=2)
        cache.put("a", template("a"))
        cache.put("b", template("b"))
        cache.put("c", template("c"))  # evicts "a" (least recent)
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get("a") is None
        assert cache.get("b").decision == "b"
        assert cache.get("c").decision == "c"

    def test_get_refreshes_recency(self):
        cache = FlowDecisionCache(capacity=2)
        cache.put("a", template("a"))
        cache.put("b", template("b"))
        cache.get("a")  # "b" is now least recent
        cache.put("c", template("c"))
        assert cache.get("b") is None
        assert cache.get("a") is not None

    def test_put_existing_key_updates_without_eviction(self):
        cache = FlowDecisionCache(capacity=2)
        cache.put("a", template("a"))
        cache.put("b", template("b"))
        cache.put("a", template("a2"))
        assert cache.evictions == 0
        assert len(cache) == 2
        assert cache.get("a").decision == "a2"

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlowDecisionCache(capacity=0)

    def test_default_capacity(self):
        assert FlowDecisionCache().capacity == DEFAULT_CAPACITY


class TestInvalidation:
    def test_token_change_flushes(self):
        cache = FlowDecisionCache(capacity=8)
        cache.sync((1,))
        cache.put("a", template("a"))
        cache.sync((1,))  # unchanged token: entries survive
        assert cache.get("a") is not None
        cache.sync((2,))  # moved token: flush
        assert cache.get("a") is None
        assert cache.invalidations == 1

    def test_empty_flush_not_counted(self):
        cache = FlowDecisionCache(capacity=8)
        cache.sync((1,))
        cache.sync((2,))
        assert cache.invalidations == 0

    def test_clear_resets_token(self):
        cache = FlowDecisionCache(capacity=8)
        cache.sync((1,))
        cache.put("a", template("a"))
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 1
        # A clear forgets the token: the next sync must not trust any
        # previously observed generation.
        cache.sync((1,))
        assert cache.get("a") is None


class TestSpliceSpans:
    def test_identical_is_none(self):
        assert splice_spans(b"abcd", b"abcd") is None

    def test_single_span(self):
        assert splice_spans(b"abcd", b"aXcd") == ((1, b"X"),)

    def test_multiple_spans(self):
        assert splice_spans(b"abcdef", b"Xbcdef"[:6]) == ((0, b"X"),)
        assert splice_spans(b"abcdef", b"aXcdeY") == ((1, b"X"), (5, b"Y"))

    def test_trailing_span(self):
        assert splice_spans(b"abcd", b"abXY") == ((2, b"XY"),)

    def test_empty(self):
        assert splice_spans(b"", b"") is None

    def test_spans_reconstruct_output(self):
        before = bytes(range(16))
        after = bytearray(before)
        after[3] = 0xAA
        after[4] = 0xBB
        after[10] = 0xCC
        spans = splice_spans(before, bytes(after))
        rebuilt = bytearray(before)
        for offset, replacement in spans:
            rebuilt[offset : offset + len(replacement)] = replacement
        assert bytes(rebuilt) == bytes(after)


class TestTemplateFromResult:
    def test_rejects_resized_locations(self):
        from repro.core.processor import ProcessResult, Decision
        from repro.realize.ip import build_ipv4_packet

        packet = build_ipv4_packet(1, 2)
        result = ProcessResult(decision=Decision.FORWARD, packet=packet)
        # Input locations one byte shorter than the output's: the
        # splice recipe cannot express it.
        shorter = packet.header.locations[:-1]
        assert template_from_result(result, shorter) is None
        same = template_from_result(result, packet.header.locations)
        assert same is not None
        assert same.has_packet
        assert same.loc_splices is None

    def test_scratch_is_copied(self):
        from repro.core.processor import ProcessResult, Decision

        result = ProcessResult(
            decision=Decision.DROP, scratch={"key": 1}
        )
        built = template_from_result(result, b"")
        result.scratch["key"] = 2
        assert built.scratch == {"key": 1}


class TestStatsArithmetic:
    def test_add_sums_everything(self):
        a = FlowCacheStats(1, 2, 3, 4, 5, 6, 7)
        b = FlowCacheStats(10, 20, 30, 40, 50, 60, 70)
        assert a + b == FlowCacheStats(11, 22, 33, 44, 55, 66, 77)

    def test_sub_deltas_counters_keeps_size(self):
        before = FlowCacheStats(1, 2, 3, 4, 5, size=6, capacity=7)
        after = FlowCacheStats(11, 22, 33, 44, 55, size=60, capacity=7)
        delta = after - before
        assert delta == FlowCacheStats(10, 20, 30, 40, 50, size=60, capacity=7)

    def test_total(self):
        parts = [FlowCacheStats(hits=1), FlowCacheStats(hits=2, misses=3)]
        assert FlowCacheStats.total(parts) == FlowCacheStats(hits=3, misses=3)
        assert FlowCacheStats.total([]) == FlowCacheStats()

    def test_cache_stats_snapshot(self):
        cache = FlowDecisionCache(capacity=1)
        cache.put("a", template("a"))
        cache.put("b", template("b"))
        cache.hits += 2
        cache.misses += 1
        cache.bypasses += 4
        stats = cache.stats()
        assert stats == FlowCacheStats(
            hits=2, misses=1, bypasses=4, evictions=1,
            invalidations=0, size=1, capacity=1, peak_size=1,
        )


class TestAdversarialChurn:
    """Cache-busting floods must be observable, not silent.

    A spoofed-flow attack drives a never-repeating key stream through
    the cache: every put displaces a live entry.  The eviction counter
    and the peak_size capacity-pressure stat together are the attack
    signature.
    """

    def test_key_churn_is_counted(self):
        cache = FlowDecisionCache(capacity=8)
        for index in range(100):
            cache.put(("spoof", index), template(index))
        stats = cache.stats()
        assert stats.evictions == 100 - 8
        assert stats.size == 8
        # The table is pinned at its bound: full capacity pressure.
        assert stats.peak_size == stats.capacity == 8

    def test_peak_size_survives_invalidation(self):
        cache = FlowDecisionCache(capacity=8)
        for index in range(5):
            cache.put(index, template(index))
        cache.clear()
        stats = cache.stats()
        assert stats.size == 0
        assert stats.peak_size == 5  # high-watermark is monotonic

    def test_churn_counters_survive_roundtrips(self):
        cache = FlowDecisionCache(capacity=4)
        for index in range(20):
            cache.put(index, template(index))
        stats = cache.stats()
        assert stats.evictions == 16 and stats.peak_size == 4
        # + and to_dict preserve the churn counters.
        merged = stats + stats
        assert merged.evictions == 32
        assert merged.peak_size == 8  # summed-over-shards convention
        assert stats.to_dict()["evictions"] == 16
        assert merged.to_dict()["peak_size"] == 8
        # Deltas keep the absolute gauges (size/capacity/peak_size).
        delta = merged - stats
        assert delta.evictions == 16
        assert delta.peak_size == merged.peak_size


class TestPurityClassification:
    """Operation purity drives cacheable-vs-bypass (Table 1 split)."""

    PURE_KEYS = {1, 2, 3}  # MATCH_32, MATCH_128, SOURCE

    def test_lookup_modules_are_pure(self):
        registry = default_registry()
        for key in self.PURE_KEYS:
            assert registry.get(key).pure, f"key {key} should be pure"

    def test_stateful_modules_are_impure(self):
        from repro.core.fn import OperationKey

        registry = default_registry()
        stateful = [
            OperationKey.FIB,      # NDN: PIT record + CS probe
            OperationKey.PIT,      # NDN data path
            OperationKey.PARM,     # OPT chain
            OperationKey.MAC,
            OperationKey.MARK,
        ]
        for key in stateful:
            operation = registry.find(int(key))
            if operation is not None:
                assert not operation.pure, f"{operation.name} must bypass"

    def test_default_is_impure(self):
        from repro.core.operations.base import Operation

        assert Operation.pure is False

    def test_compiled_program_classification(self):
        from repro.core.fn import FieldOperation, OperationKey
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket
        from repro.core.processor import RouterProcessor
        from repro.core.state import NodeState

        processor = RouterProcessor(NodeState(node_id="purity"))
        pure_header = DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.MATCH_32),
                FieldOperation(32, 32, OperationKey.SOURCE),
            ),
            locations=bytes(8),
        )
        impure_header = DipHeader(
            fns=(FieldOperation(0, 32, OperationKey.FIB),),
            locations=bytes(4),
        )
        processor.process_batch(
            [DipPacket(header=pure_header), DipPacket(header=impure_header)]
        )
        pure_program = processor.programs.lookup(pure_header.fns)
        impure_program = processor.programs.lookup(impure_header.fns)
        assert pure_program.cacheable
        assert pure_program.reads == ((0, 32), (32, 32))
        assert pure_program.read_slices == ((0, 4), (4, 8))
        assert not impure_program.cacheable

    def test_unaligned_reads_have_no_slices(self):
        from repro.core.fn import FieldOperation, OperationKey
        from repro.core.processor import RouterProcessor
        from repro.core.state import NodeState

        processor = RouterProcessor(NodeState(node_id="unaligned"))
        fns = (FieldOperation(3, 13, OperationKey.MATCH_32),)
        program = processor.programs.lookup(fns)
        assert program.reads == ((3, 13),)
        assert program.read_slices is None
