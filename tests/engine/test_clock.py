"""The engine's time-base seam (repro.engine.clock).

The ``clock=`` injection point exists so call sites stop hardcoding
``now=0.0``: the serving daemon injects wall time, the co-simulation
fabric injects a :class:`ManualClock` driven by fabric virtual time.
The regression that matters: stateful protocol timers (PIT lifetimes,
content-store TTLs) must *fire* under a virtual clock -- under the old
hardcoded 0.0 no entry could ever expire.
"""

import pytest

from repro.core.state import NodeState
from repro.engine import (
    EngineConfig,
    ForwardingEngine,
    ManualClock,
    timeless_clock,
    wall_clock,
)
from repro.errors import EngineError
from repro.protocols.ndn.cs import ContentStore
from repro.realize.ndn import build_data_packet, build_interest_packet

DIGEST = 0xAB12CD34


def _state_factory() -> NodeState:
    state = NodeState(node_id="clock-test")
    state.name_fib_digest.insert(DIGEST, 32, 7)
    return state


def _engine(clock=None) -> ForwardingEngine:
    return ForwardingEngine(
        _state_factory,
        config=EngineConfig(num_shards=1, backend="serial", batch_size=8),
        clock=clock,
    )


class TestManualClock:
    def test_starts_at_origin_and_advances(self):
        clock = ManualClock()
        assert clock() == 0.0
        clock.advance_to(2.5)
        assert clock() == 2.5

    def test_rewind_is_an_error(self):
        clock = ManualClock(start=5.0)
        with pytest.raises(EngineError):
            clock.advance_to(4.0)

    def test_advance_to_same_time_is_allowed(self):
        clock = ManualClock(start=1.0)
        clock.advance_to(1.0)
        assert clock() == 1.0


class TestClockSeam:
    def test_default_clock_is_timeless(self):
        engine = _engine()
        assert engine.clock is timeless_clock
        assert engine.clock() == 0.0

    def test_explicit_now_wins_over_clock(self):
        clock = ManualClock(start=50.0)
        engine = _engine(clock=clock)
        engine.run([build_interest_packet(DIGEST).encode()], now=0.0)
        state = engine.shard_state(0)
        # Stamped with the explicit now, not the clock's 50.0.
        entry = next(iter(state.pit._entries.values()))
        assert entry.expires_at == pytest.approx(
            state.pit.default_lifetime
        )

    def test_batches_stamped_from_injected_clock(self):
        clock = ManualClock()
        engine = _engine(clock=clock)
        clock.advance_to(100.0)
        engine.run([build_interest_packet(DIGEST).encode()])
        state = engine.shard_state(0)
        entry = next(iter(state.pit._entries.values()))
        assert entry.expires_at == pytest.approx(
            100.0 + state.pit.default_lifetime
        )


class TestVirtualTimeExpiry:
    """PIT / content-store timers fire under fabric virtual time."""

    def test_pit_entry_survives_within_lifetime(self):
        clock = ManualClock()
        engine = _engine(clock=clock)
        interest = build_interest_packet(DIGEST).encode()
        data = build_data_packet(DIGEST, b"payload").encode()
        report = engine.run([interest])
        assert report.outcomes[0].decision.value == "forward"
        clock.advance_to(2.0)  # inside the 4s default lifetime
        report = engine.run([data])
        # The pending interest is satisfied: data flows downstream.
        assert report.outcomes[0].decision.value == "forward"

    def test_pit_entry_expires_under_virtual_time(self):
        clock = ManualClock()
        engine = _engine(clock=clock)
        interest = build_interest_packet(DIGEST).encode()
        data = build_data_packet(DIGEST, b"payload").encode()
        engine.run([interest])
        state = engine.shard_state(0)
        lifetime = state.pit.default_lifetime
        clock.advance_to(lifetime + 6.0)  # well past expiry
        report = engine.run([data])
        # The entry expired: the data is unsolicited and cannot forward.
        assert report.outcomes[0].decision.value != "forward"
        assert len(state.pit) == 0

    def test_content_store_ttl_expires_under_virtual_time(self):
        from repro.core.operations.fib import digest_name

        def factory() -> NodeState:
            state = _state_factory()
            state.content_store = ContentStore(capacity=16, ttl=5.0)
            return state

        clock = ManualClock()
        engine = ForwardingEngine(
            factory,
            config=EngineConfig(num_shards=1, backend="serial", batch_size=8),
            clock=clock,
        )
        # Prime: interest, then its data cached on the way back.
        engine.run([build_interest_packet(DIGEST).encode()])
        clock.advance_to(0.5)
        engine.run([build_data_packet(DIGEST, b"content").encode()])
        store = engine.shard_state(0).content_store
        name = digest_name(DIGEST)
        assert store.lookup(name, now=clock()) is not None, "data was cached"
        assert store.lookup(name, now=clock() + 100.0) is None, (
            "TTL expiry must fire under virtual time"
        )


class TestServeUsesWallClock:
    def test_serve_core_injects_wall_clock(self):
        from repro.serve.config import ServeConfig
        from repro.serve.core import ServeCore

        core = ServeCore(
            ServeConfig(shards=1, backend="serial"),
            state_factory=_state_factory,
        )
        try:
            assert core.engine.clock is wall_clock
        finally:
            core.close()
