"""Property tests for the RSS-style flow dispatcher.

The dispatcher's contract, checked over hypothesis-generated FN
programs: the flow key is a pure function of the program and its
dispatch-relevant field bytes (never the process, the dispatcher
instance, the payload or the hop limit); a program with flow fields or
a stateful router FN keeps its shard for every shard count, a program
of state-free router FNs alone is spread round-robin, and real traffic
spreads close to uniformly.
"""

import random
from zlib import crc32

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import BASIC_HEADER_SIZE, DipHeader
from repro.core.packet import DipPacket
from repro.core.program import PROGRAM_CACHE_BOUND
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.dispatch import (
    FLOW_DISPATCH_KEYS,
    STATE_FREE_KEYS,
    FlowDispatcher,
)
from repro.realize.ip import build_ipv4_packet
from repro.workloads import generators

# Router keys of the spread class: state-free, and no flow field.
SPREAD_KEYS = sorted(int(key) for key in STATE_FREE_KEYS - FLOW_DISPATCH_KEYS)
# Keys that pin a program without flow fields to one shard.
AFFINE_KEYS = [
    int(OperationKey.TELEMETRY),
    int(OperationKey.TELEMETRY_ARRAY),
    int(OperationKey.CONG_MARK),
    int(OperationKey.POLICE),
    int(OperationKey.DPS),
    500,  # unknown
]


def spreads(header: DipHeader) -> bool:
    """Whether ``header``'s program is in the spread class."""
    router_keys = {fn.key for fn in header.fns if not fn.tag}
    return not router_keys & FLOW_DISPATCH_KEYS and router_keys <= STATE_FREE_KEYS

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

    Across dispatcher instances (each with a cold plan cache) and
    across the decoded-packet and raw-bytes input forms.
    """
    packet = DipPacket(header=header, payload=payload)
    raw = packet.encode()
    first = FlowDispatcher(num_shards=4)
    second = FlowDispatcher(num_shards=4)
    key = first.key_of(packet)
    assert key == second.key_of(packet)
    assert key == first.key_of(raw)


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
    dispatcher = FlowDispatcher(num_shards=4)
    assert dispatcher.key_of(a) == dispatcher.key_of(b)


@settings(max_examples=100, deadline=None)
@given(header=header_strategy, num_shards=st.integers(min_value=1, max_value=16))
@example(header=DipHeader(), num_shards=1)
def test_shard_assignment_stable_and_in_range(header, num_shards):
    packet = DipPacket(header=header)
    raw = packet.encode()
    (first,) = FlowDispatcher(num_shards).shards_of([raw])
    (second,) = FlowDispatcher(num_shards).shards_of([raw])
    assert first == second
    assert 0 <= first < num_shards
    pair = FlowDispatcher(num_shards).shards_of([raw, packet])
    if spreads(header):
        # Round-robin by position in the run, whatever the form.
        assert pair == [0, 1 % num_shards]
    else:
        # Raw and decoded forms land together -- including the
        # one-shard case, which skips the hash altogether.
        assert pair == [first] * 2


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
        counts[dispatcher.shards_of([raw])[0]] += 1
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


spread_fn_strategy = st.builds(
    FieldOperation,
    field_loc=st.integers(min_value=0, max_value=256),
    field_len=st.sampled_from([0, 8, 16, 32, 128]),
    key=st.sampled_from(SPREAD_KEYS),
)
# Host-tagged FNs of any key: routers skip them, so they never pin.
tagged_fn_strategy = st.builds(
    FieldOperation,
    field_loc=st.integers(min_value=0, max_value=256),
    field_len=st.sampled_from([0, 8, 16, 32, 128]),
    key=st.sampled_from([int(key) for key in OperationKey] + [500]),
    tag=st.just(True),
)
spread_chain = st.lists(
    st.one_of(spread_fn_strategy, tagged_fn_strategy), max_size=4
).map(tuple)


@settings(max_examples=100, deadline=None)
@given(
    fns=spread_chain,
    locations=st.lists(st.binary(max_size=32), min_size=1, max_size=40),
    num_shards=st.integers(min_value=1, max_value=8),
)
def test_spread_programs_take_shards_round_robin(fns, locations, num_shards):
    """A state-free program without flow fields goes to shard
    ``i % num_shards`` for the ``i``-th packet of the run, whatever its
    field bytes -- while its flow key stays the program hash."""
    packets = [
        DipPacket(header=DipHeader(fns=fns, locations=region))
        for region in locations
    ]
    mixed = [
        packet.encode() if index % 2 else packet
        for index, packet in enumerate(packets)
    ]
    dispatcher = FlowDispatcher(num_shards)
    assert dispatcher.shards_of(mixed) == [
        index % num_shards for index in range(len(mixed))
    ]
    program = crc32(b"".join(fn.encode() for fn in fns)).to_bytes(4, "big")
    assert {dispatcher.key_of(packet) for packet in mixed} == {program}


@settings(max_examples=100, deadline=None)
@given(
    fns=spread_chain,
    pin=st.sampled_from(AFFINE_KEYS),
    at=st.integers(min_value=0, max_value=4),
    locations=st.lists(st.binary(max_size=32), min_size=2, max_size=40),
    num_shards=st.integers(min_value=2, max_value=8),
)
def test_stateful_or_unknown_key_pins_the_program(
    fns, pin, at, locations, num_shards
):
    """One stateful or unknown router FN in a program without flow
    fields sends every packet of it to one shard."""
    fns = fns[:at] + (FieldOperation(0, 8, key=pin),) + fns[at:]
    shards = FlowDispatcher(num_shards).shards_of(
        [
            DipPacket(header=DipHeader(fns=fns, locations=region)).encode()
            for region in locations
        ]
    )
    assert len(set(shards)) == 1


def test_opt_flow_key_is_the_program_hash():
    """Spreading OPT across shards leaves its flow key -- the
    mitigation gate's per-source bucket key -- the program hash."""
    wires = [
        packet.encode()
        for packet in generators.make_opt_workload(
            packet_count=64, seed=0
        ).packets
    ]
    defs_end = BASIC_HEADER_SIZE + 6 * wires[0][2]
    program = crc32(wires[0][BASIC_HEADER_SIZE:defs_end]).to_bytes(4, "big")
    dispatcher = FlowDispatcher(4)
    assert {dispatcher.key_of(wire) for wire in wires} == {program}
    assert dispatcher.shards_of(wires) == [i % 4 for i in range(len(wires))]


def opt_state():
    return generators.make_opt_workload(packet_count=1, seed=0).processor.state


def walk(wires, num_shards):
    """``(decision, ports, packet)`` per wire, and the shard reports."""
    report = ForwardingEngine(
        opt_state, config=EngineConfig(num_shards=num_shards, batch_size=8)
    ).run(wires)
    rows = [(o.decision, o.ports, o.packet) for o in report.outcomes]
    return rows, report.shards


@settings(max_examples=25, deadline=None)
@given(
    fns=spread_chain,
    locations=st.lists(st.binary(max_size=48), min_size=4, max_size=24),
    payload=st.binary(max_size=16),
    opt_count=st.integers(min_value=0, max_value=8),
)
def test_spreading_changes_no_outcome(fns, locations, payload, opt_count):
    """On the serial backend, 2 and 4 spread shards give every packet
    the outcome one shard gives it, and every shard gets work."""
    packets = [
        DipPacket(header=DipHeader(fns=fns, locations=region), payload=payload)
        for region in locations
    ] + generators.make_opt_workload(packet_count=opt_count, seed=0).packets
    wires = [packet.encode() for packet in packets]
    alone, _ = walk(wires, 1)
    for num_shards in (2, 4):
        rows, shards = walk(wires, num_shards)
        assert rows == alone
        assert all(shard.packets > 0 for shard in shards)
