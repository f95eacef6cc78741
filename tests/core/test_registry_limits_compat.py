"""Tests for the registry, processing limits, and legacy compat layer."""

import pytest

from repro.core.compat import (
    FnUnsupportedMessage,
    rewrap_from_legacy,
    strip_to_legacy,
    wrap_legacy_packet,
)
from repro.core.fn import FieldOperation, OperationKey
from repro.core.limits import LimitTracker, ProcessingLimits
from repro.core.registry import OperationRegistry, all_operations, default_registry
from repro.errors import (
    CodecError,
    HeaderValueError,
    ProcessingLimitError,
    UnknownOperationError,
)
from repro.protocols.ip.ipv4 import IPv4Header
from repro.protocols.ip.ipv6 import IPv6Header
from repro.util.bitview import BitView


class TestRegistry:
    def test_default_has_all_table1_keys(self):
        registry = default_registry()
        for key in range(1, 12):  # Table 1 keys
            assert registry.supports(key)
        assert registry.supports(OperationKey.PASS)
        assert registry.supports(OperationKey.TELEMETRY)

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownOperationError):
            OperationRegistry().get(4)

    def test_find_returns_none(self):
        assert OperationRegistry().find(4) is None

    def test_restricted_subset(self):
        restricted = default_registry().restricted({1, 2})
        assert restricted.supported_keys() == {1, 2}
        assert not restricted.supports(4)

    def test_unregister(self):
        registry = default_registry()
        assert registry.unregister(4)
        assert not registry.supports(4)
        assert not registry.unregister(4)

    def test_all_operations_unique_keys(self):
        keys = [op.key for op in all_operations()]
        assert len(keys) == len(set(keys)) == 20


class TestLimitTracker:
    def test_fn_count(self):
        tracker = LimitTracker(ProcessingLimits(max_fn_count=2))
        tracker.check_fn_count(2)
        with pytest.raises(ProcessingLimitError):
            tracker.check_fn_count(3)

    def test_cycles_accumulate(self):
        tracker = LimitTracker(ProcessingLimits(max_cycles=100))
        tracker.charge_cycles(60)
        with pytest.raises(ProcessingLimitError):
            tracker.charge_cycles(60)

    def test_state_accumulates(self):
        tracker = LimitTracker(ProcessingLimits(max_state_bytes=100))
        tracker.charge_state(64)
        with pytest.raises(ProcessingLimitError):
            tracker.charge_state(64)

    def test_zero_disables(self):
        tracker = LimitTracker(
            ProcessingLimits(max_fn_count=0, max_cycles=0, max_state_bytes=0)
        )
        tracker.check_fn_count(10_000)
        tracker.charge_cycles(10**9)
        tracker.charge_state(10**9)


class TestLegacyWrap:
    def test_ipv4_wrap_strip_roundtrip(self):
        legacy = IPv4Header(
            src=0xC0A80001, dst=0x0A000001, total_length=24
        ).encode() + b"DATA"
        wrapped = wrap_legacy_packet(legacy, "ipv4")
        assert wrapped.header.fn_num == 2
        assert strip_to_legacy(wrapped) == legacy

    def test_ipv6_wrap_strip_roundtrip(self):
        legacy = IPv6Header(src=1, dst=2, payload_length=4).encode() + b"DATA"
        wrapped = wrap_legacy_packet(legacy, "ipv6")
        assert strip_to_legacy(wrapped) == legacy

    def test_wrapped_fns_point_at_embedded_addresses(self):
        """The embedded IPv4 dst is readable through the match FN."""
        legacy = IPv4Header(src=5, dst=0x0A000001).encode()
        wrapped = wrap_legacy_packet(legacy, "ipv4")
        match_fn = wrapped.header.fns[0]
        assert match_fn.key == OperationKey.MATCH_32
        view = BitView(wrapped.header.locations)
        dst = view.get_uint(match_fn.field_loc, match_fn.field_len)
        assert dst == 0x0A000001

    def test_unknown_kind_rejected(self):
        with pytest.raises(CodecError):
            wrap_legacy_packet(bytes(40), "ipx")

    def test_short_packet_rejected(self):
        with pytest.raises(CodecError):
            wrap_legacy_packet(bytes(10), "ipv4")

    def test_strip_requires_legacy_next_header(self):
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        plain = DipPacket(header=DipHeader(locations=b""))
        with pytest.raises(HeaderValueError):
            strip_to_legacy(plain)

    def test_rewrap_preserves_extra_fns(self):
        legacy = IPv4Header(src=5, dst=6).encode()
        extra = (FieldOperation(0, 32, OperationKey.TELEMETRY),)
        template = wrap_legacy_packet(legacy, "ipv4", extra_fns=extra)
        stripped = strip_to_legacy(template)
        rewrapped = rewrap_from_legacy(stripped, template)
        assert rewrapped.header.fns == template.header.fns
        assert strip_to_legacy(rewrapped) == legacy


class TestFnUnsupportedMessage:
    def test_roundtrip(self):
        message = FnUnsupportedMessage(
            reporter_id="as-7", unsupported_key=7, original_header=b"\x01\x02"
        )
        assert FnUnsupportedMessage.decode(message.encode()) == message

    def test_header_excerpt_capped(self):
        message = FnUnsupportedMessage(
            reporter_id="x", unsupported_key=1, original_header=bytes(200)
        )
        decoded = FnUnsupportedMessage.decode(message.encode())
        assert len(decoded.original_header) == 64

    def test_garbage_rejected(self):
        with pytest.raises(CodecError):
            FnUnsupportedMessage.decode(b"\x00\x00\x00\x00")
        with pytest.raises(CodecError):
            FnUnsupportedMessage.decode(b"")
