"""Tests for byte-string helpers."""

import pytest

from repro.util.bytesutil import bytes_to_int, hexdump, int_to_bytes


class TestIntConversion:
    def test_roundtrip(self):
        assert bytes_to_int(int_to_bytes(0xDEADBEEF, 4)) == 0xDEADBEEF

    def test_zero_padding(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1, 4)

    def test_overflow_rejected(self):
        with pytest.raises(OverflowError):
            int_to_bytes(256, 1)


class TestHexdump:
    def test_shows_offset_hex_ascii(self):
        dump = hexdump(b"hello world!")
        assert dump.startswith("00000000")
        assert "68 65 6c 6c 6f" in dump
        assert "hello world!" in dump

    def test_non_printable_as_dots(self):
        assert hexdump(b"\x00\x01")[-2:] == ".."

    def test_multi_line(self):
        dump = hexdump(bytes(40), width=16)
        assert len(dump.splitlines()) == 3
