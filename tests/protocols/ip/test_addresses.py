"""Tests for IPv4 address parsing."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.errors import ProtocolError
from repro.protocols.ip.addresses import parse_ipv4


class TestIpv4:
    def test_parse_basic(self):
        assert parse_ipv4("0.0.0.0") == 0
        assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF
        assert parse_ipv4("10.0.0.1") == 0x0A000001

    @pytest.mark.parametrize(
        "bad", ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "01.2.3.4", ""]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_ipv4(bad)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_property_roundtrip(self, value):
        assert parse_ipv4(str(ipaddress.IPv4Address(value))) == value
