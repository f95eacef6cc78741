"""Tests for the NDN FIB, PIT, and content store."""

import pytest

from repro.protocols.ndn.cs import ContentStore
from repro.protocols.ndn.fib import NameFib
from repro.protocols.ndn.names import Name
from repro.protocols.ndn.packets import Data
from repro.protocols.ndn.pit import Pit


class TestNameFib:
    def test_longest_prefix_wins(self):
        fib = NameFib()
        fib.insert(Name.parse("/a"), 1)
        fib.insert(Name.parse("/a/b"), 2)
        assert fib.lookup(Name.parse("/a/b/c")) == {2}
        assert fib.lookup(Name.parse("/a/x")) == {1}
        assert fib.lookup(Name.parse("/z")) is None

    def test_multipath_entry(self):
        fib = NameFib()
        fib.insert(Name.parse("/a"), 1)
        fib.insert(Name.parse("/a"), 2)
        assert fib.lookup(Name.parse("/a/b")) == {1, 2}
        assert fib.lookup_port(Name.parse("/a/b")) == 1  # deterministic

    def test_root_entry_matches_everything(self):
        fib = NameFib()
        fib.insert(Name.parse("/"), 9)
        assert fib.lookup(Name.parse("/anything/at/all")) == {9}

    def test_remove_port_and_entry(self):
        fib = NameFib()
        fib.insert(Name.parse("/a"), 1)
        fib.insert(Name.parse("/a"), 2)
        assert fib.remove(Name.parse("/a"), 1)
        assert fib.lookup(Name.parse("/a")) == {2}
        assert fib.remove(Name.parse("/a"))  # whole entry
        assert fib.lookup(Name.parse("/a")) is None
        assert not fib.remove(Name.parse("/a"))
        assert not fib.remove(Name.parse("/never"), 1)

    def test_entries_iteration(self):
        fib = NameFib()
        fib.insert(Name.parse("/a"), 1)
        entries = list(fib.entries())
        assert entries == [(Name.parse("/a"), {1})]
        assert len(fib) == 1


class TestPit:
    def test_new_entry_then_aggregation(self):
        pit = Pit()
        name = Name.parse("/a/b")
        first = pit.insert(name, in_port=1, nonce=10)
        assert first.is_new and not first.is_duplicate
        second = pit.insert(name, in_port=2, nonce=11)
        assert not second.is_new and not second.is_duplicate
        assert pit.satisfy(name) == {1, 2}

    def test_duplicate_nonce_detected(self):
        pit = Pit()
        name = Name.parse("/a")
        pit.insert(name, in_port=1, nonce=10)
        dup = pit.insert(name, in_port=3, nonce=10)
        assert dup.is_duplicate
        # the duplicate's port is NOT recorded
        assert pit.satisfy(name) == {1}

    def test_satisfy_consumes(self):
        pit = Pit()
        name = Name.parse("/a")
        pit.insert(name, in_port=1)
        assert pit.satisfy(name) == {1}
        assert pit.satisfy(name) is None

    def test_expiry(self):
        pit = Pit(default_lifetime=1.0)
        name = Name.parse("/a")
        pit.insert(name, in_port=1, now=0.0)
        assert pit.satisfy(name, now=2.0) is None

    def test_expiry_extended_by_reinsert(self):
        pit = Pit(default_lifetime=1.0)
        name = Name.parse("/a")
        pit.insert(name, in_port=1, now=0.0)
        pit.insert(name, in_port=2, now=0.9)
        assert pit.satisfy(name, now=1.5) == {1, 2}

    def test_expired_entry_replaced_as_new(self):
        pit = Pit(default_lifetime=1.0)
        name = Name.parse("/a")
        pit.insert(name, in_port=1, now=0.0)
        result = pit.insert(name, in_port=2, now=5.0)
        assert result.is_new
        assert pit.satisfy(name, now=5.1) == {2}

    def test_peek_does_not_consume(self):
        pit = Pit()
        name = Name.parse("/a")
        pit.insert(name, in_port=4)
        assert pit.peek(name).in_ports == {4}
        assert pit.satisfy(name) == {4}


class TestContentStore:
    def test_insert_lookup(self):
        cs = ContentStore(capacity=2)
        data = Data(Name.parse("/a"), b"x")
        cs.insert(data)
        assert cs.lookup(Name.parse("/a")) == data
        assert cs.hits == 1 and cs.misses == 0

    def test_miss_counted(self):
        cs = ContentStore(capacity=2)
        assert cs.lookup(Name.parse("/a")) is None
        assert cs.misses == 1

    def test_lru_eviction(self):
        cs = ContentStore(capacity=2)
        cs.insert(Data(Name.parse("/a"), b"1"))
        cs.insert(Data(Name.parse("/b"), b"2"))
        cs.lookup(Name.parse("/a"))  # refresh /a
        cs.insert(Data(Name.parse("/c"), b"3"))  # evicts /b
        assert cs.lookup(Name.parse("/b")) is None
        assert cs.lookup(Name.parse("/a")) is not None
        assert len(cs) == 2

    def test_zero_capacity_disables(self):
        cs = ContentStore(capacity=0)
        cs.insert(Data(Name.parse("/a"), b"x"))
        assert cs.lookup(Name.parse("/a")) is None

    def test_reinsert_updates(self):
        cs = ContentStore(capacity=2)
        cs.insert(Data(Name.parse("/a"), b"old"))
        cs.insert(Data(Name.parse("/a"), b"new"))
        assert cs.lookup(Name.parse("/a")).content == b"new"
        assert len(cs) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ContentStore(capacity=-1)
