"""Tests for the 2EM cipher (the paper's F_MAC workhorse)."""

import pytest

from repro.crypto.even_mansour import EvenMansour2

KEY = bytes(range(16))


class TestEvenMansour2:
    def test_encryption_changes_block(self):
        cipher = EvenMansour2(KEY)
        assert cipher.encrypt_int(0) != 0

    def test_key_dependence(self):
        a = EvenMansour2(bytes(16)).encrypt_int(0)
        b = EvenMansour2(b"\x01" + bytes(15)).encrypt_int(0)
        assert a != b

    def test_deterministic(self):
        block = int.from_bytes(b"\x13" * 16, "big")
        assert EvenMansour2(KEY).encrypt_int(block) == EvenMansour2(
            KEY
        ).encrypt_int(block)

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            EvenMansour2(b"short")

    def test_key_property_exposes_bytes(self):
        assert EvenMansour2(KEY).key == KEY

    def test_matches_construction(self):
        """E(k,x) = k ^ P2(k ^ P1(k ^ x)) -- spot-check the layering."""
        from repro.crypto.permutation import FeistelPermutation

        def permute(permutation, value):
            left, right = permutation.apply_pair(
                value >> 64, value & ((1 << 64) - 1)
            )
            return (left << 64) | right

        block = int.from_bytes(b"\x77" * 16, "big")
        k = int.from_bytes(KEY, "big")
        p1, p2 = FeistelPermutation(1), FeistelPermutation(2)
        inner = permute(p1, block ^ k) ^ k
        expected = permute(p2, inner) ^ k
        assert EvenMansour2(KEY).encrypt_int(block) == expected
