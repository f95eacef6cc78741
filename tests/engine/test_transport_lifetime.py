"""Worker lifetime behind the transport seam (repro.engine.transport).

An inline (serial) shard lives as long as its engine, so it must not
accumulate anything per batch; an un-started process engine is exactly
``start()`` -> run -> ``close()`` per call, so nothing -- shard state,
workers, shared-memory segments -- may carry from one run to the next.
"""

import gc
from collections import deque

import pytest

from repro.core.registry import RegistryMutation
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.shm import leaked_segments
from repro.engine.workers import ShardWorker
from repro.errors import SimulationError
from repro.realize.ndn import build_data_packet, build_interest_packet

from tests.engine.test_clock import DIGEST, _state_factory
from tests.engine.test_resilience import (
    make_packets,
    resilience_state_factory,
)


def test_serial_shards_keep_no_per_batch_history():
    engine = ForwardingEngine(
        resilience_state_factory,
        config=EngineConfig(num_shards=2, batch_size=4),
    )
    packets = make_packets(8)
    for _ in range(1000):
        assert engine.run(packets).packets_processed == 8
    states = [engine.shard_state(shard) for shard in range(2)]
    workers = [
        candidate
        for candidate in gc.get_objects()
        if isinstance(candidate, ShardWorker)
        and any(candidate.processor.state is state for state in states)
    ]
    assert len(workers) == 2
    for worker in workers:
        assert worker.packets_processed > 1000
        for name, value in vars(worker).items():
            if isinstance(value, (list, dict, set, deque)):
                assert len(value) < 100, f"{name} grows with every batch"


def test_unstarted_process_engine_is_fresh_every_run():
    before = leaked_segments()
    config = EngineConfig(num_shards=1, backend="process")
    interest = build_interest_packet(DIGEST).encode()
    data = build_data_packet(DIGEST, b"payload").encode()

    engine = ForwardingEngine(_state_factory, config=config)
    assert engine.run([interest]).decisions == {"forward": 1}
    # The PIT entry died with the first run's workers: the data is
    # unsolicited for the second run's fresh state.
    assert "forward" not in engine.run([data]).decisions
    assert leaked_segments() == before
    with pytest.raises(SimulationError):
        engine.reconfigure(RegistryMutation(drop_keys=(4,)))
    with pytest.raises(SimulationError):
        engine.shard_state(0)

    # Started, the same two runs meet in one shard's PIT.
    with ForwardingEngine(_state_factory, config=config) as engine:
        assert engine.run([interest]).decisions == {"forward": 1}
        assert engine.run([data]).decisions == {"forward": 1}
    assert leaked_segments() == before
