"""Hostile traffic cannot grow the program or kernel caches without bound.

A stream of ever-new FN-definition regions (one mutated key per packet:
the shape of the ``limit``/fuzzer attack family) used to leave one
program entry -- two keys -- and one kernel per region behind, forever.
``PROGRAM_CACHE_BOUND`` caps the program cache (clear-on-overflow), and
the flow-cache entries and columnar kernels keyed on program objects
die with it.  Results must not notice.
"""

import pytest

from repro.core.flowcache import FlowDecisionCache
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.core.program import PROGRAM_CACHE_BOUND
from repro.core.state import NodeState
from repro.engine.columnar import ColumnarSpecializer, columnar_available

DISTINCT = PROGRAM_CACHE_BOUND + 186


def make_state():
    state = NodeState(node_id="bound")
    state.fib_v4.insert(0x0A000000, 8, 2)
    return state


def hostile_stream():
    """DISTINCT packets, each with its own program: a routed F_32_match
    plus one FN under a key no module implements (ignored, so the
    program stays pure and kernelizable)."""
    locations = (0x0A000001).to_bytes(4, "big") + bytes(4)
    return [
        DipPacket(
            header=DipHeader(
                fns=(
                    FieldOperation(0, 32, OperationKey.MATCH_32),
                    FieldOperation(32, 32, 1000 + index),
                ),
                locations=locations,
            )
        ).encode()
        for index in range(DISTINCT)
    ]


@pytest.mark.parametrize("front", ["batch", "flow-cache", "columnar"])
def test_program_and_kernel_caches_stay_bounded(front):
    if front == "columnar" and not columnar_available():
        pytest.skip("numpy unavailable")
    stream = hostile_stream()
    processor = RouterProcessor(
        make_state(),
        flow_cache=FlowDecisionCache() if front != "batch" else None,
    )
    specializer = ColumnarSpecializer(processor)
    run = (specializer if front == "columnar" else processor).process_batch

    # One batch holding every program (overflow mid-batch), then the
    # same programs again in small batches (overflow across batches).
    results = run(stream, collect_notes=True)
    assert len(processor.programs) <= PROGRAM_CACHE_BOUND
    assert len(specializer) <= PROGRAM_CACHE_BOUND
    for start in range(0, DISTINCT, 512):
        results += run(stream[start : start + 512], collect_notes=True)
        assert len(processor.programs) <= PROGRAM_CACHE_BOUND
        assert len(specializer) <= PROGRAM_CACHE_BOUND
    if front == "columnar":
        assert specializer.stats.vectorized_packets == 2 * DISTINCT
        assert specializer.stats.invalidations >= 2

    # A processor that has seen nothing else decides each the same.
    state, registry = make_state(), processor.registry
    assert results == 2 * [
        RouterProcessor(state, registry).process(wire) for wire in stream
    ]
    assert all(result.ports == (2,) for result in results)
