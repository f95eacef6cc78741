"""Property tests for the RSS-style flow dispatcher.

The dispatcher's contract, checked over hypothesis-generated FN
programs: the flow key is a pure function of the program and its
dispatch-relevant field bytes (never the process, the dispatcher
instance, the payload or the hop limit), shard assignments are stable
for every shard count, and real traffic spreads close to uniformly.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.packet import DipPacket
from repro.core.program import PROGRAM_CACHE_BOUND
from repro.engine.dispatch import FlowDispatcher, flow_key
from repro.realize.ip import build_ipv4_packet

fn_strategy = st.builds(
    FieldOperation,
    field_loc=st.integers(min_value=0, max_value=256),
    field_len=st.sampled_from([0, 8, 16, 32, 128]),
    key=st.sampled_from([int(key) for key in OperationKey] + [500]),
    tag=st.booleans(),
)

header_strategy = st.builds(
    DipHeader,
    fns=st.lists(fn_strategy, max_size=4).map(tuple),
    locations=st.binary(max_size=32),
    hop_limit=st.integers(min_value=0, max_value=255),
    parallel=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(header=header_strategy, payload=st.binary(max_size=8))
def test_equal_program_and_fields_hash_equal(header, payload):
    """Same program + same field bytes -> same key, everywhere.

    Across dispatcher instances (each with a cold plan cache), across
    the decoded-packet and raw-bytes input forms, and through the
    module-level ``flow_key`` helper.
    """
    packet = DipPacket(header=header, payload=payload)
    raw = packet.encode()
    first = FlowDispatcher(num_shards=4)
    second = FlowDispatcher(num_shards=4)
    key = first.key_of(packet)
    assert key == second.key_of(packet)
    assert key == first.key_of(raw)
    assert key == flow_key(raw)


@settings(max_examples=100, deadline=None)
@given(
    header=header_strategy,
    payload_a=st.binary(max_size=8),
    payload_b=st.binary(max_size=8),
    hop_limit=st.integers(min_value=0, max_value=255),
)
def test_key_ignores_payload_and_hop_limit(
    header, payload_a, payload_b, hop_limit
):
    """Per-hop mutable bytes must not split a flow across shards."""
    rehopped = DipHeader(
        fns=header.fns,
        locations=header.locations,
        hop_limit=hop_limit,
        parallel=header.parallel,
    )
    a = DipPacket(header=header, payload=payload_a).encode()
    b = DipPacket(header=rehopped, payload=payload_b).encode()
    assert flow_key(a) == flow_key(b)


@settings(max_examples=100, deadline=None)
@given(header=header_strategy, num_shards=st.integers(min_value=1, max_value=16))
@example(header=DipHeader(), num_shards=1)
def test_shard_assignment_stable_and_in_range(header, num_shards):
    packet = DipPacket(header=header)
    raw = packet.encode()
    first = FlowDispatcher(num_shards).shard_of(raw)
    second = FlowDispatcher(num_shards).shard_of(raw)
    assert first == second
    assert 0 <= first < num_shards
    # The batch form agrees with the single-packet view -- including
    # the one-shard case, which skips the hash altogether.
    assert FlowDispatcher(num_shards).shards_of([raw, packet]) == [first] * 2


@pytest.mark.parametrize("num_shards", [2, 4, 8, 16])
def test_distribution_within_2x_of_uniform(num_shards):
    """Random IPv4 flows land within 2x of a uniform per-shard share."""
    rng = random.Random(42)
    dispatcher = FlowDispatcher(num_shards)
    flows = 2000
    counts = [0] * num_shards
    for _ in range(flows):
        raw = build_ipv4_packet(
            rng.getrandbits(32), rng.getrandbits(32)
        ).encode()
        counts[dispatcher.shard_of(raw)] += 1
    assert sum(counts) == flows
    assert max(counts) <= 2 * flows / num_shards


def test_plan_cache_is_bounded_like_the_program_cache():
    """Ever-new programs keep the plan cache at ``PROGRAM_CACHE_BOUND``
    and hash exactly as a cold dispatcher hashes them."""
    dispatcher = FlowDispatcher(num_shards=1)
    for key in range(2 * PROGRAM_CACHE_BOUND):
        fns = (FieldOperation(0, 32, OperationKey.MATCH_32),
               FieldOperation(0, 0, key=key, tag=True))
        wire = DipPacket(header=DipHeader(fns=fns, locations=bytes(4))).encode()
        assert dispatcher.key_of(wire) == FlowDispatcher(1).key_of(wire)
        assert len(dispatcher._plans) <= PROGRAM_CACHE_BOUND
