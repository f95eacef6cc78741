"""Tests for byte-string helpers."""

from repro.util.bytesutil import hexdump


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
