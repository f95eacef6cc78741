"""Tests for hierarchical NDN names and their 32-bit digests."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.protocols.ndn.names import Name

name_component = st.binary(min_size=1, max_size=12)
name_strategy = st.builds(
    Name, st.lists(name_component, min_size=0, max_size=6)
)


class TestParsing:
    def test_parse_and_str(self):
        name = Name.parse("/seu/hotnets/paper.pdf")
        assert len(name) == 3
        assert str(name) == "/seu/hotnets/paper.pdf"

    def test_root_name(self):
        root = Name.parse("/")
        assert len(root) == 0
        assert str(root) == "/"

    def test_missing_slash_rejected(self):
        with pytest.raises(ProtocolError):
            Name.parse("seu/hotnets")

    def test_empty_component_rejected(self):
        with pytest.raises(ProtocolError):
            Name([b""])


class TestHierarchy:
    def test_prefix_truncation(self):
        name = Name.parse("/a/b/c")
        assert name.prefix(2) == Name.parse("/a/b")
        assert name.prefix(0) == Name.parse("/")
        with pytest.raises(ProtocolError):
            name.prefix(4)

    def test_append(self):
        assert Name.parse("/a").append(b"b") == Name.parse("/a/b")

    def test_indexing_and_slicing(self):
        name = Name.parse("/a/b/c")
        assert name[0] == b"a"
        assert name[1:] == Name.parse("/b/c")


class TestWireFormat:
    def test_roundtrip(self):
        name = Name.parse("/seu/hotnets/paper.pdf")
        assert Name.decode(name.encode()) == name

    def test_binary_components_roundtrip(self):
        name = Name([b"\x00\xff", b"/slash/inside"])
        assert Name.decode(name.encode()) == name

    def test_truncated_rejected(self):
        encoded = Name.parse("/abc").encode()
        with pytest.raises(ProtocolError):
            Name.decode(encoded[:-1])
        with pytest.raises(ProtocolError):
            Name.decode(b"\x00")

    @given(name_strategy)
    def test_property_roundtrip(self, name):
        assert Name.decode(name.encode()) == name


class TestDigest:
    def test_digest_is_32_bits_and_stable(self):
        digest = Name.parse("/seu/hotnets").digest32()
        assert 0 <= digest < (1 << 32)
        assert digest == Name.parse("/seu/hotnets").digest32()

    def test_prefix_preserving_high_bits(self):
        """All content under one top-level prefix shares the high 16 bits."""
        a = Name.parse("/seu/one").digest32()
        b = Name.parse("/seu/two").digest32()
        c = Name.parse("/other/one").digest32()
        assert a >> 16 == b >> 16
        assert a >> 16 != c >> 16
        assert a != b

    def test_digest_route_prefix_vs_exact(self):
        prefix, plen = Name.parse("/seu").digest_route()
        assert plen == 16 and prefix & 0xFFFF == 0
        full, flen = Name.parse("/seu/hotnets").digest_route()
        assert flen == 32
        assert full >> 16 == prefix >> 16

    def test_empty_name_digest(self):
        assert Name.parse("/").digest32() == 0

    @given(name_strategy, name_strategy)
    def test_property_distinct_names_rarely_collide_high_bits(self, a, b):
        """Different first components give different 16-bit prefixes
        (collisions possible but the strategy space makes them rare;
        equality of first components must give equal prefixes)."""
        if len(a) and len(b) and a[0] == b[0]:
            assert a.digest32() >> 16 == b.digest32() >> 16
