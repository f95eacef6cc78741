"""The per-batch supervisor cuts the batches the per-packet ring loop did.

``ForwardingEngine._supervise`` dispatches a whole run and cuts each
shard's batches arithmetically (``repro.engine.rings.cut_batches``).
These properties pin that against a model of the loop it replaced --
push every packet into a bounded ring, send a batch whenever the ring
holds ``batch_size``, and on a full ring either send (block) or drop
(drop-tail) -- on both transports: the same ``(shard, seq, indices)``
submits in the same order, the same ``RingStats``, the same drops, and
the decision counts a recount of the outcomes gives, in order of first
appearance.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, ForwardingEngine, RingStats
from repro.errors import SimulationError
from tests.engine.support import build_mixed_packets, engine_state_factory


def per_packet_model(shards, num_shards, batch_size, ring_capacity, drop_tail):
    """The submits and ring counters of the per-packet ring loop."""
    rings = [[] for _ in range(num_shards)]
    counters = [[0, 0, 0] for _ in range(num_shards)]  # enq, drop, peak
    seqs = [0] * num_shards
    sent = []

    def send(shard):
        batch = rings[shard][:batch_size]
        del rings[shard][:batch_size]
        sent.append((shard, seqs[shard], batch))
        seqs[shard] += 1

    def push(shard, index):
        if len(rings[shard]) >= ring_capacity:
            return False
        rings[shard].append(index)
        counters[shard][0] += 1
        counters[shard][2] = max(counters[shard][2], len(rings[shard]))
        return True

    for index, shard in enumerate(shards):
        if not push(shard, index):
            if drop_tail:
                counters[shard][1] += 1
                continue
            while not push(shard, index):
                send(shard)
        if len(rings[shard]) >= batch_size:
            send(shard)
    for shard in range(num_shards):
        while rings[shard]:
            send(shard)
    return sent, tuple(RingStats(ring_capacity, *c) for c in counters)


class RecordingTransport:
    """Delegates to the engine's transport and records every submit."""

    def __init__(self, inner):
        self.inner = inner
        self.submits = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def submit(self, shard, seq, indices, payloads, now):
        self.submits.append((shard, seq, list(indices)))
        self.inner.submit(shard, seq, indices, payloads, now)


def check_against_model(
    backend, seed, count, num_shards, batch_size, ring_capacity, backpressure
):
    packets = build_mixed_packets(seed=seed)[:count]
    engine = ForwardingEngine(
        engine_state_factory,
        config=EngineConfig(
            num_shards=num_shards,
            backend=backend,
            batch_size=batch_size,
            ring_capacity=ring_capacity,
            backpressure=backpressure,
        ),
    )
    recorder = engine._transport = RecordingTransport(engine._transport)
    report = engine.run(packets)

    sent, rings = per_packet_model(
        engine.dispatcher.shards_of(packets),
        num_shards,
        batch_size,
        ring_capacity,
        backpressure == "drop-tail",
    )
    assert recorder.submits == sent
    assert report.rings == rings
    assert report.packets_dropped_backpressure == sum(r.dropped for r in rings)
    kept = {index for _, _, batch in sent for index in batch}
    assert {
        index for index, outcome in enumerate(report.outcomes) if outcome
    } == kept
    recount = {}
    for outcome in report.outcomes:
        if outcome is not None:
            name = outcome.decision.value
            recount[name] = recount.get(name, 0) + 1
    assert list(report.decisions.items()) == list(recount.items())


SHAPES = dict(
    seed=st.integers(min_value=0, max_value=1_000),
    count=st.integers(min_value=0, max_value=50),
    num_shards=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=12),
    ring_capacity=st.integers(min_value=1, max_value=12),
    backpressure=st.sampled_from(["block", "drop-tail"]),
)


@settings(max_examples=150, deadline=None)
@given(**SHAPES)
def test_inline_batches_match_the_per_packet_loop(**shape):
    check_against_model("serial", **shape)


@settings(max_examples=6, deadline=None)
@given(**SHAPES)
def test_process_batches_match_the_per_packet_loop(**shape):
    check_against_model("process", **shape)


def test_ring_capacity_must_be_positive():
    with pytest.raises(SimulationError):
        EngineConfig(ring_capacity=0)
