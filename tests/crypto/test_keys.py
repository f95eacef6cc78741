"""Tests for router/host key material containers."""

import pytest

from repro.crypto.keys import (
    DYNAMIC_KEY_CACHE_BOUND,
    RouterKey,
    secret_from_seed,
)
from repro.crypto.prf import derive_key


class TestSecretFromSeed:
    def test_deterministic_and_distinct(self):
        assert secret_from_seed("a") == secret_from_seed("a")
        assert secret_from_seed("a") != secret_from_seed("b")
        assert len(secret_from_seed("a")) == 16


class TestRouterKey:
    def test_dynamic_key_deterministic_per_session(self):
        router = RouterKey("r1")
        session = b"\x01" * 16
        assert router.dynamic_key(session) == router.dynamic_key(session)

    def test_dynamic_key_varies_by_session(self):
        router = RouterKey("r1")
        assert router.dynamic_key(b"\x01" * 16) != router.dynamic_key(
            b"\x02" * 16
        )

    def test_dynamic_key_varies_by_router(self):
        session = b"\x03" * 16
        assert RouterKey("r1").dynamic_key(session) != RouterKey(
            "r2"
        ).dynamic_key(session)

    def test_same_node_id_reproduces_keys(self):
        """Secrets are seeded by node id, so simulations are stable."""
        session = b"\x04" * 16
        assert RouterKey("r9").dynamic_key(session) == RouterKey(
            "r9"
        ).dynamic_key(session)

    def test_explicit_secret_must_be_16_bytes(self):
        with pytest.raises(ValueError):
            RouterKey("r1", local_secret=b"short")

    def test_spoofed_sessions_keep_cache_bounded(self):
        """F_parm derives a key for any session ID on the wire; a flood
        of distinct IDs must not grow the cache past its bound."""
        router = RouterKey("r1")
        sessions = [
            i.to_bytes(16, "big") for i in range(2 * DYNAMIC_KEY_CACHE_BOUND)
        ]
        for session in sessions:
            router.dynamic_key(session)
        assert len(router._dynamic_cache) <= DYNAMIC_KEY_CACHE_BOUND
        evicted = sessions[0]
        assert evicted not in router._dynamic_cache
        assert router.dynamic_key(evicted) == derive_key(
            secret_from_seed("router:r1"), evicted, b"r1"
        )

    def test_recently_used_session_survives_eviction(self):
        router = RouterKey("r1")
        hot = b"\xff" * 16
        router.dynamic_key(hot)
        for i in range(DYNAMIC_KEY_CACHE_BOUND):
            router.dynamic_key(i.to_bytes(16, "big"))
            router.dynamic_key(hot)
        assert hot in router._dynamic_cache
