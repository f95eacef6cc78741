"""Tests for the public Feistel permutations behind 2EM."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.permutation import FeistelPermutation

BLOCK = FeistelPermutation.BLOCK_SIZE


class TestFeistelPermutation:
    def test_deterministic_across_instances(self):
        block = b"\x42" * 16
        assert (
            FeistelPermutation(1).apply(block)
            == FeistelPermutation(1).apply(block)
        )

    def test_different_indices_differ(self):
        block = bytes(16)
        assert (
            FeistelPermutation(1).apply(block)
            != FeistelPermutation(2).apply(block)
        )

    def test_not_identity(self):
        block = bytes(16)
        assert FeistelPermutation(1).apply(block) != block

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            FeistelPermutation(1).apply(b"short")

    def test_too_few_rounds_rejected(self):
        with pytest.raises(ValueError):
            FeistelPermutation(1, rounds=1)

    def test_avalanche_single_bit_flip(self):
        """Flipping one input bit changes many output bits."""
        perm = FeistelPermutation(index=1)
        a = perm.apply(bytes(16))
        b = perm.apply(b"\x80" + bytes(15))
        differing = sum(
            bin(x ^ y).count("1") for x, y in zip(a, b)
        )
        assert differing > 32  # out of 128

    @given(
        st.sampled_from([1, 2, 3]),
        st.binary(min_size=BLOCK, max_size=BLOCK),
    )
    def test_property_int_core_matches_bytes_wrapper(self, index, block):
        perm = FeistelPermutation(index)
        value = int.from_bytes(block, "big")
        halves = (value >> 64, value & ((1 << 64) - 1))

        def join(pair):
            return ((pair[0] << 64) | pair[1]).to_bytes(BLOCK, "big")

        assert join(perm.apply_pair(*halves)) == perm.apply(block)
