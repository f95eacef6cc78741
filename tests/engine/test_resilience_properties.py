"""Property tests for the supervisor's conservation law.

Whatever the engine shape and whatever crashes the fault plan scripts,
every offered packet ends in exactly one of three places::

    offered == delivered-outcomes + backpressure-drops + dead-letters

and every input index appears exactly once across those sets.  The
serial backend keeps examples cheap (no fork per example); the process
backend's conservation is pinned by tests/engine/test_resilience.py.

Both backends run the *same* supervisor over different transports, so
a second property demands that scripted (``batch=``-pinned) crashes
give the same outcomes, restarts, retries and dead letters on both.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import EngineConfig, ForwardingEngine
from repro.resilience import CRASH, Fault, FaultPlan
from tests.engine.test_resilience import (
    make_packets,
    resilience_state_factory,
)


@settings(max_examples=40, deadline=None)
@given(
    packet_count=st.integers(min_value=1, max_value=48),
    batch_size=st.integers(min_value=1, max_value=8),
    ring_capacity=st.integers(min_value=1, max_value=8),
    num_shards=st.integers(min_value=1, max_value=3),
    max_retries=st.integers(min_value=0, max_value=2),
    crash_probability=st.sampled_from([None, 0.25, 0.6]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_conservation_under_scripted_crashes(
    packet_count,
    batch_size,
    ring_capacity,
    num_shards,
    max_retries,
    crash_probability,
    seed,
):
    plan = None
    if crash_probability is not None:
        plan = FaultPlan(
            faults=(
                Fault(kind=CRASH, times=0, probability=crash_probability),
            ),
            seed=seed,
        )
    config = EngineConfig(
        num_shards=num_shards,
        backend="serial",
        batch_size=batch_size,
        ring_capacity=ring_capacity,
        backpressure="block",
        fault_plan=plan,
        max_retries=max_retries,
        retry_backoff=0.0,
        max_worker_restarts=100_000,
        max_dead_letters=100_000,
    )
    engine = ForwardingEngine(resilience_state_factory, config=config)
    report = engine.run(make_packets(packet_count))

    assert report.packets_offered == packet_count
    assert report.packets_dropped_backpressure == 0  # block backpressure
    assert report.packets_offered == (
        report.packets_processed + report.dead_letter_total
    )
    # Exactly-once: outcome indices and dead-letter indices partition
    # the input (the caps above keep the dead-letter record complete).
    assert report.dead_letter_total == len(report.dead_letter)
    dead = [letter.index for letter in report.dead_letter]
    assert len(dead) == len(set(dead))
    with_outcome = {
        index
        for index, outcome in enumerate(report.outcomes)
        if outcome is not None
    }
    assert with_outcome.isdisjoint(dead)
    assert with_outcome | set(dead) == set(range(packet_count))
    assert len(with_outcome) == report.packets_processed
    for letter in report.dead_letter:
        assert letter.attempts == max_retries + 1


def _pinned_crash_run(backend, packets, num_shards, max_retries, crashes):
    plan = FaultPlan(
        faults=tuple(
            Fault(kind=CRASH, shard=shard % num_shards, batch=batch)
            for shard, batch in crashes
        )
    )
    config = EngineConfig(
        num_shards=num_shards,
        backend=backend,
        batch_size=4,
        fault_plan=plan,
        max_retries=max_retries,
        retry_backoff=0.0,
        max_worker_restarts=64,
    )
    engine = ForwardingEngine(resilience_state_factory, config=config)
    return engine.run(packets)


@settings(max_examples=12, deadline=None)
@given(
    packet_count=st.integers(min_value=1, max_value=60),
    num_shards=st.integers(min_value=1, max_value=2),
    max_retries=st.integers(min_value=0, max_value=2),
    crashes=st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 8)), max_size=5
    ),
)
def test_transports_agree_under_pinned_crashes(
    packet_count, num_shards, max_retries, crashes
):
    """One supervisor, two transports: the same scripted crashes give
    the same outcomes, restarts, retries and dead letters -- however
    many batches a process shard happened to have in flight."""
    packets = make_packets(packet_count)
    inline, forked = (
        _pinned_crash_run(backend, packets, num_shards, max_retries, crashes)
        for backend in ("serial", "process")
    )
    assert forked.outcomes == inline.outcomes
    assert forked.worker_restarts == inline.worker_restarts
    assert forked.retries == inline.retries
    assert forked.dead_letter_total == inline.dead_letter_total
    # Shards die in wall-clock order on the process transport, so the
    # record's order is not part of the contract; its content is.
    assert sorted(
        (letter.index, letter.shard, letter.attempts)
        for letter in forked.dead_letter
    ) == sorted(
        (letter.index, letter.shard, letter.attempts)
        for letter in inline.dead_letter
    )
