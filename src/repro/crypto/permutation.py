"""Fixed public permutations for the Even-Mansour construction.

2EM (Bogdanov et al., EUROCRYPT 2012 -- reference [2] of the paper)
builds a block cipher from a small number of *public* permutations with
key material XORed between them.  The permutations themselves carry no
key; they only need to be fixed, public, and "random looking".

We build each public permutation as an unkeyed 8-round Feistel network
over 128-bit blocks whose round functions are integer mixers seeded by
the permutation index.  A Feistel network is a permutation by
construction (each round is invertible), and the mixing is easily strong
enough for a protocol-behaviour reproduction (this is
not a production cipher and does not claim cryptographic strength).
"""

from __future__ import annotations

from typing import Tuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(state: int) -> int:
    """One step of the SplitMix64 mixer (public domain constant set)."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class FeistelPermutation:
    """An unkeyed, public, invertible permutation over 128-bit blocks.

    Parameters
    ----------
    index:
        Distinguishes the permutations P1, P2, ... used by 2EM.  Two
        instances with the same index compute the same permutation.
    rounds:
        Number of Feistel rounds (default 8).
    """

    BLOCK_SIZE = 16  # bytes

    def __init__(self, index: int, rounds: int = 8) -> None:
        if rounds < 2:
            raise ValueError("a Feistel network needs at least 2 rounds")
        self.index = index
        self.rounds = rounds
        # Public round constants derived from the permutation index.
        seed = _splitmix64((index * 0xD1B54A32D192ED03) & _MASK64)
        constants = []
        for _ in range(rounds):
            seed = _splitmix64(seed)
            constants.append(seed)
        self._constants = tuple(constants)

    # The round function -- mix one 64-bit half with a public round
    # constant -- is inlined: it runs 16 times per 2EM block, so a call
    # per round would cost as much as the mixing.

    def apply_pair(self, left: int, right: int) -> Tuple[int, int]:
        """Apply the permutation to a block held as two 64-bit halves."""
        for constant in self._constants:
            z = ((right ^ constant) * 0xFF51AFD7ED558CCD) & _MASK64
            z = ((z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
            left, right = right, left ^ z ^ (z >> 29)
        return left, right

    def apply(self, block: bytes) -> bytes:
        """Apply the permutation to a 16-byte block."""
        return _join(*self.apply_pair(*_split(block)))


def _split(block: bytes) -> Tuple[int, int]:
    if len(block) != FeistelPermutation.BLOCK_SIZE:
        raise ValueError(
            f"block must be {FeistelPermutation.BLOCK_SIZE} bytes, "
            f"got {len(block)}"
        )
    value = int.from_bytes(block, "big")
    return value >> 64, value & _MASK64


def _join(left: int, right: int) -> bytes:
    return ((left << 64) | right).to_bytes(16, "big")
