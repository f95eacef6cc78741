"""Shared engine-equivalence materials.

Module-level (not fixtures) so the multiprocessing backend can pickle
``engine_state_factory`` by qualified name, and so other suites can
import the same mixed stateful workload.
"""

import random

from repro.conformance.executors import outcome_from_result, wire_outcomes
from repro.core.processor import RouterProcessor
from repro.core.state import NodeState
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import (
    build_data_packet,
    build_interest_packet,
    name_digest,
)

FLOW_NAMES = [f"/flow/{i}" for i in range(10)]


def engine_state_factory():
    """Module-level so the multiprocessing backend can rebuild it."""
    state = NodeState(node_id="eq")
    state.fib_v4.insert(0x0A000000, 8, 2)
    for name in FLOW_NAMES:
        state.name_fib_digest.insert(name_digest(name), 32, 4)
    return state


def build_mixed_packets(seed=5, flows=10, per_flow=4):
    """Interleaved stateful flows, preserving per-flow packet order.

    Each NDN flow is interest -> data -> data -> interest: the middle
    data consumes the PIT entry and the second one then misses, so the
    outcome sequence is order-sensitive *within* the flow.  IPv4
    packets (hits and misses) pad the mix.
    """
    rng = random.Random(seed)
    queues = []
    for index in range(flows):
        name = FLOW_NAMES[index % len(FLOW_NAMES)]
        queues.append(
            [
                build_interest_packet(name).encode(),
                build_data_packet(name, b"content").encode(),
                build_data_packet(name, b"content").encode(),
                build_interest_packet(name).encode(),
            ][:per_flow]
        )
    for _ in range(flows):
        dst = rng.choice([0x0A000000, 0x7F000000]) | rng.getrandbits(24)
        queues.append([build_ipv4_packet(dst, rng.getrandbits(32)).encode()])
    packets = []
    while any(queues):
        queue = rng.choice([q for q in queues if q])
        packets.append(queue.pop(0))
    return packets


def sequential_reference(packets):
    """Normalized WireOutcome per packet from one sequential processor.

    Uses the conformance layer's normalization so engine reports and
    ``ProcessResult``s compare in the same wire-level terms the
    differential matrix (tests/conformance) uses.
    """
    processor = RouterProcessor(engine_state_factory())
    return [outcome_from_result(processor.process(raw)) for raw in packets]


def assert_matches_reference(report, reference):
    """Every engine outcome equals the sequential verdict, in order."""
    got = wire_outcomes(report.outcomes)
    assert len(got) == len(reference)
    for index, (outcome, expected) in enumerate(zip(got, reference)):
        assert outcome is not None, f"packet {index} never processed"
        assert outcome == expected, (
            f"packet {index}: expected {expected}, got {outcome}"
        )
