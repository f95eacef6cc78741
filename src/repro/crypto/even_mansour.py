"""The 2EM key-alternating cipher used by the paper's F_MAC operation.

2EM encrypts a 128-bit block ``x`` under key ``k`` as::

    E(k, x) = k XOR P2( k XOR P1( k XOR x ) )

where P1 and P2 are fixed public permutations (Bogdanov et al. 2012,
reference [2] of the paper).  The paper picks 2EM over AES on Tofino
because it completes in one pipeline pass; we implement both so the
design choice can be benchmarked (ABL-MAC in DESIGN.md).
"""

from __future__ import annotations

from repro.crypto.permutation import FeistelPermutation

_P1 = FeistelPermutation(index=1)
_P2 = FeistelPermutation(index=2)
_MASK64 = (1 << 64) - 1


class EvenMansour2:
    """Two-round Even-Mansour block cipher over 128-bit blocks.

    The cipher works on a block as a 128-bit int (:meth:`encrypt_int`),
    split into the two 64-bit halves the Feistel permutations take.

    Parameters
    ----------
    key:
        16-byte key, XORed before, between, and after the two public
        permutations (the single-key 2EM variant).
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.BLOCK_SIZE:
            raise ValueError(
                f"2EM key must be {self.BLOCK_SIZE} bytes, got {len(key)}"
            )
        self._key = bytes(key)
        value = int.from_bytes(self._key, "big")
        self._key_hi = value >> 64
        self._key_lo = value & _MASK64

    @property
    def key(self) -> bytes:
        """The raw key bytes."""
        return self._key

    def encrypt_int(self, x: int) -> int:
        """Encrypt one block given as a 128-bit int."""
        k_hi, k_lo = self._key_hi, self._key_lo
        hi, lo = _P1.apply_pair((x >> 64) ^ k_hi, (x & _MASK64) ^ k_lo)
        hi, lo = _P2.apply_pair(hi ^ k_hi, lo ^ k_lo)
        return ((hi ^ k_hi) << 64) | (lo ^ k_lo)
