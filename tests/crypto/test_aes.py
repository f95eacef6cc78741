"""Tests for the from-scratch AES-128 against FIPS-197 vectors."""

import pytest

from repro.crypto.aes import AES128


class TestAesVectors:
    def test_fips197_appendix_c1(self):
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        plaintext = 0x00112233445566778899AABBCCDDEEFF
        expected = 0x69C4E0D86A7B0430D8CDB78070B4C55A
        assert AES128(key).encrypt_int(plaintext) == expected

    def test_fips197_appendix_b(self):
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = 0x3243F6A8885A308D313198A2E0370734
        expected = 0x3925841D02DC09FBDC118597196A0B32
        assert AES128(key).encrypt_int(plaintext) == expected


class TestAesValidation:
    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            AES128(b"too-short")

    def test_key_dependence(self):
        assert AES128(bytes(16)).encrypt_int(0) != AES128(
            b"\x01" + bytes(15)
        ).encrypt_int(0)
