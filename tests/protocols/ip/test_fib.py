"""Tests for the binary-trie LPM table, incl. a brute-force oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProtocolError
from repro.protocols.ip.fib import LpmTable


def brute_force_lookup(routes, address, width):
    """Reference LPM: scan all routes, keep the longest match."""
    best = None
    best_len = -1
    for prefix, prefix_len, value in routes:
        shift = width - prefix_len
        if prefix_len == 0 or (address >> shift) == (prefix >> shift):
            if prefix_len > best_len:
                best, best_len = value, prefix_len
    return best


class TestLpmBasics:
    def test_exact_and_covering_prefixes(self):
        table = LpmTable(32)
        table.insert(0x0A000000, 8, "ten-slash-8")
        table.insert(0x0A010000, 16, "ten-one")
        assert table.lookup(0x0A010203) == "ten-one"
        assert table.lookup(0x0A990203) == "ten-slash-8"
        assert table.lookup(0x0B000000) is None

    def test_default_route(self):
        table = LpmTable(32)
        table.insert(0, 0, "default")
        assert table.lookup(0xDEADBEEF) == "default"

    def test_replace_updates_value(self):
        table = LpmTable(32)
        table.insert(0x0A000000, 8, 1)
        table.insert(0x0A000000, 8, 2)
        assert table.lookup(0x0A000001) == 2
        assert len(table) == 1

    def test_remove(self):
        table = LpmTable(32)
        table.insert(0x0A000000, 8, 1)
        assert table.remove(0x0A000000, 8)
        assert table.lookup(0x0A000001) is None
        assert not table.remove(0x0A000000, 8)
        assert len(table) == 0

    def test_remove_keeps_parent(self):
        table = LpmTable(32)
        table.insert(0x0A000000, 8, "parent")
        table.insert(0x0A010000, 16, "child")
        table.remove(0x0A010000, 16)
        assert table.lookup(0x0A010203) == "parent"

    def test_routes_iteration(self):
        table = LpmTable(32)
        table.insert(0x0A000000, 8, 1)
        table.insert(0x80000000, 1, 2)
        assert sorted(table.routes()) == [
            (0x0A000000, 8, 1),
            (0x80000000, 1, 2),
        ]

    def test_validation(self):
        table = LpmTable(32)
        with pytest.raises(ProtocolError):
            table.insert(0x0A000001, 8, 1)  # bits below mask
        with pytest.raises(ProtocolError):
            table.insert(0, 33, 1)  # prefix too long
        with pytest.raises(ProtocolError):
            table.lookup(1 << 32)  # address too wide
        with pytest.raises(ValueError):
            LpmTable(0)

    def test_128_bit_width(self):
        table = LpmTable(128)
        table.insert(0x20010DB8 << 96, 32, "doc")
        assert table.lookup((0x20010DB8 << 96) | 1) == "doc"


class TestLpmAgainstOracle:
    def test_randomized_against_brute_force(self):
        rng = random.Random(1234)
        table = LpmTable(32)
        routes = []
        for i in range(300):
            prefix_len = rng.randint(0, 32)
            prefix = (
                (rng.getrandbits(prefix_len) << (32 - prefix_len))
                if prefix_len
                else 0
            )
            table.insert(prefix, prefix_len, i)
            # keep only the latest value per (prefix, len), as the trie does
            routes = [
                r for r in routes if (r[0], r[1]) != (prefix, prefix_len)
            ]
            routes.append((prefix, prefix_len, i))
        for _ in range(500):
            address = rng.getrandbits(32)
            assert table.lookup(address) == brute_force_lookup(
                routes, address, 32
            )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        route_count=st.integers(min_value=1, max_value=40),
    )
    def test_property_matches_oracle(self, seed, route_count):
        rng = random.Random(seed)
        table = LpmTable(16)
        routes = {}
        for i in range(route_count):
            prefix_len = rng.randint(0, 16)
            prefix = (
                (rng.getrandbits(prefix_len) << (16 - prefix_len))
                if prefix_len
                else 0
            )
            table.insert(prefix, prefix_len, i)
            routes[(prefix, prefix_len)] = i
        flat = [(p, plen, v) for (p, plen), v in routes.items()]
        for _ in range(50):
            address = rng.getrandbits(16)
            assert table.lookup(address) == brute_force_lookup(flat, address, 16)
