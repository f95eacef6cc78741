"""Tests for the 2EM cipher (the paper's F_MAC workhorse)."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.even_mansour import EvenMansour2

KEY = bytes(range(16))


class TestEvenMansour2:
    def test_encrypt_decrypt_roundtrip(self):
        cipher = EvenMansour2(KEY)
        block = b"\xa5" * 16
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_encryption_changes_block(self):
        cipher = EvenMansour2(KEY)
        assert cipher.encrypt_block(bytes(16)) != bytes(16)

    def test_key_dependence(self):
        block = bytes(16)
        a = EvenMansour2(bytes(16)).encrypt_block(block)
        b = EvenMansour2(b"\x01" + bytes(15)).encrypt_block(block)
        assert a != b

    def test_deterministic(self):
        block = b"\x13" * 16
        assert (
            EvenMansour2(KEY).encrypt_block(block)
            == EvenMansour2(KEY).encrypt_block(block)
        )

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ValueError):
            EvenMansour2(b"short")

    def test_key_property_exposes_bytes(self):
        assert EvenMansour2(KEY).key == KEY

    def test_matches_construction(self):
        """E(k,x) = k ^ P2(k ^ P1(k ^ x)) -- spot-check the layering."""
        from repro.crypto.permutation import FeistelPermutation

        def as_int(block):
            return int.from_bytes(block, "big")

        def as_block(value):
            return value.to_bytes(16, "big")

        block = b"\x77" * 16
        k = as_int(KEY)
        p1, p2 = FeistelPermutation(1), FeistelPermutation(2)
        inner = as_int(p1.apply(as_block(as_int(block) ^ k))) ^ k
        expected = as_block(as_int(p2.apply(as_block(inner))) ^ k)
        assert EvenMansour2(KEY).encrypt_block(block) == expected

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            EvenMansour2(KEY).encrypt_block(b"short")
        with pytest.raises(ValueError):
            EvenMansour2(KEY).decrypt_block(bytes(17))

    @given(
        key=st.binary(min_size=16, max_size=16),
        block=st.binary(min_size=16, max_size=16),
    )
    def test_property_roundtrip(self, key, block):
        cipher = EvenMansour2(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
