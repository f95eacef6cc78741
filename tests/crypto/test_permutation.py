"""Tests for the public Feistel permutations behind 2EM."""

import pytest

from repro.crypto.permutation import FeistelPermutation

MASK64 = (1 << 64) - 1


def permute(index, value):
    """FeistelPermutation(index) over one 128-bit block held as an int."""
    left, right = FeistelPermutation(index).apply_pair(value >> 64, value & MASK64)
    return (left << 64) | right


class TestFeistelPermutation:
    def test_deterministic_across_instances(self):
        block = int.from_bytes(b"\x42" * 16, "big")
        assert permute(1, block) == permute(1, block)

    def test_different_indices_differ(self):
        assert permute(1, 0) != permute(2, 0)

    def test_not_identity(self):
        assert permute(1, 0) != 0

    def test_too_few_rounds_rejected(self):
        with pytest.raises(ValueError):
            FeistelPermutation(1, rounds=1)

    def test_avalanche_single_bit_flip(self):
        """Flipping one input bit changes many output bits."""
        differing = bin(permute(1, 0) ^ permute(1, 1 << 127)).count("1")
        assert differing > 32  # out of 128
