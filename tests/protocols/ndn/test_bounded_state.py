"""Bounded PIT and TTL'd content store (the serve PR's state bounds).

The serving daemon keeps a node alive indefinitely, so both NDN
tables must hold under adversarial churn: the PIT caps its entry count
with a pluggable eviction policy, the content store ages entries out
on a TTL -- and both count what they discard, because a bound that
loses state silently would break the daemon's accounting story."""

import pytest

from repro.protocols.ndn.cs import ContentStore
from repro.protocols.ndn.names import Name
from repro.protocols.ndn.packets import Data
from repro.protocols.ndn.pit import PIT_EVICTION_POLICIES, Pit


def name(tag):
    return Name.parse(f"/bound/{tag}")


# ----------------------------------------------------------------------
# PIT capacity + eviction policy
# ----------------------------------------------------------------------
def test_pit_capacity_evicts_lru():
    pit = Pit(capacity=2, eviction="lru")
    pit.insert(name("a"), in_port=1)
    pit.insert(name("b"), in_port=1)
    pit.peek(name("a"))  # refresh: a is now the most recent
    pit.insert(name("c"), in_port=1)
    assert len(pit) == 2
    assert pit.evictions == 1
    assert pit.peek(name("b")) is None  # b was coldest
    assert pit.peek(name("a")) is not None


def test_pit_capacity_evicts_fifo():
    pit = Pit(capacity=2, eviction="fifo")
    pit.insert(name("a"), in_port=1)
    pit.insert(name("b"), in_port=1)
    pit.peek(name("a"))  # fifo ignores recency
    pit.insert(name("c"), in_port=1)
    assert pit.peek(name("a")) is None  # a was inserted first
    assert pit.peek(name("b")) is not None
    assert pit.evictions == 1


def test_pit_aggregation_refreshes_lru_order():
    pit = Pit(capacity=2, eviction="lru")
    pit.insert(name("a"), in_port=1)
    pit.insert(name("b"), in_port=1)
    result = pit.insert(name("a"), in_port=2)  # aggregate, not new
    assert not result.is_new
    pit.insert(name("c"), in_port=1)
    assert pit.peek(name("b")) is None
    assert pit.peek(name("a")).in_ports == {1, 2}


def test_pit_unbounded_by_default():
    pit = Pit()
    for index in range(5000):
        pit.insert(name(index), in_port=1)
    assert len(pit) == 5000
    assert pit.evictions == 0


def test_pit_validates_bounds():
    with pytest.raises(ValueError):
        Pit(capacity=0)
    with pytest.raises(ValueError):
        Pit(eviction="random")
    assert set(PIT_EVICTION_POLICIES) == {"lru", "fifo"}


def test_pit_counts_expirations():
    pit = Pit(default_lifetime=4.0)
    pit.insert(name("a"), in_port=1, now=1.0)  # expires at 5.0
    assert pit.insert(name("a"), in_port=2, now=6.0).is_new
    assert pit.expirations == 1
    pit.insert(name("b"), in_port=1, now=6.0)  # expires at 10.0
    assert pit.insert(name("b"), in_port=2, now=100.0).is_new
    assert pit.expirations == 2
    assert len(pit) == 2


def test_pit_timeless_paths_never_expire():
    pit = Pit(default_lifetime=0.0)
    pit.insert(name("a"), in_port=1)  # now=0: expires_at == 0
    assert pit.peek(name("a")) is not None  # now=0 guard holds
    assert pit.satisfy(name("a")) == {1}
    assert pit.expirations == 0


# ----------------------------------------------------------------------
# content store TTL
# ----------------------------------------------------------------------
def test_cs_ttl_expires_lazily_on_lookup():
    cs = ContentStore(capacity=8, ttl=10.0)
    cs.insert(Data(name("a"), content=b"x"), now=1.0)
    assert cs.lookup(name("a"), now=5.0) is not None
    assert cs.lookup(name("a"), now=11.5) is None  # 1.0 + 10.0 passed
    assert cs.expirations == 1
    assert len(cs) == 0


def test_cs_reinsert_refreshes_ttl():
    cs = ContentStore(capacity=8, ttl=10.0)
    cs.insert(Data(name("a"), content=b"x"), now=1.0)
    cs.insert(Data(name("a"), content=b"x"), now=8.0)  # now expires 18
    assert cs.lookup(name("a"), now=12.0) is not None
    assert cs.expirations == 0


def test_cs_without_ttl_never_expires():
    cs = ContentStore(capacity=8)
    cs.insert(Data(name("a"), content=b"x"), now=1.0)
    assert cs.lookup(name("a"), now=1e9) is not None
    assert cs.expirations == 0


def test_cs_timeless_lookups_never_expire():
    cs = ContentStore(capacity=8, ttl=10.0)
    cs.insert(Data(name("a"), content=b"x"))  # now=0 convention
    assert cs.lookup(name("a")) is not None  # guard: now=0 is timeless
    assert cs.expirations == 0


def test_cs_eviction_drops_ttl_bookkeeping():
    cs = ContentStore(capacity=2, ttl=10.0)
    for tag in ("a", "b", "c"):
        cs.insert(Data(name(tag), content=b"x"), now=1.0)
    assert cs.evictions == 1
    assert len(cs._expires) == len(cs._store) == 2
    cs.clear()
    assert len(cs._expires) == 0


def test_cs_validates_bounds():
    with pytest.raises(ValueError):
        ContentStore(capacity=-1)
    with pytest.raises(ValueError):
        ContentStore(ttl=0.0)
