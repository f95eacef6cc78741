"""From-scratch AES-128 (FIPS-197) for the 2EM-vs-AES ablation.

The paper notes that on Tofino, AES would require resubmitting the
packet while 2EM completes in one pass, so the prototype uses 2EM.  To
benchmark that design choice in software we need a real AES; this is a
table-based implementation of AES-128 over single 16-byte blocks.

Encryption -- the direction CBC-MAC uses -- works on a block as a
128-bit int split into four 32-bit column words, with the classic four
T-tables folding SubBytes, ShiftRows and MixColumns into one lookup per
byte, so the 2EM-vs-AES comparison sets two int-domain ciphers side by
side.  Decryption, off the MAC path, stays a plain byte-list walk of
the inverse round transformations.  There are no constant-time
guarantees: it is a protocol-behaviour substrate, not production crypto.
"""

from __future__ import annotations

from typing import List, Sequence


def _build_sbox() -> tuple:
    """Construct the AES S-box from GF(2^8) inversion + affine map."""
    # Multiplicative inverse table via exp/log over generator 3.
    exp = [0] * 512
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        # multiply by generator 0x03 = x + 1
        value ^= (value << 1) ^ (0x1B if value & 0x80 else 0)
        value &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    sbox = [0] * 256
    for byte in range(256):
        inv = 0 if byte == 0 else exp[255 - log[byte]]
        # affine transformation
        result = 0x63
        for shift in (0, 1, 2, 3, 4):
            result ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[byte] = result
    inv_sbox = [0] * 256
    for i, s in enumerate(sbox):
        inv_sbox[s] = i
    return tuple(sbox), tuple(inv_sbox)


_SBOX, _INV_SBOX = _build_sbox()

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gmul(a: int, b: int) -> int:
    """Multiply two GF(2^8) elements."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_t_tables() -> tuple:
    """The four encryption T-tables: ``_TE[j][x]`` is the column word
    that S-box byte ``x`` in row ``j`` contributes after MixColumns."""
    te0 = []
    for s in _SBOX:
        double = _xtime(s)
        te0.append((double << 24) | (s << 16) | (s << 8) | (double ^ s))
    # Row j's table is row 0's rotated right by j bytes.
    return tuple(
        tuple(((w >> shift) | (w << (32 - shift))) & 0xFFFFFFFF for w in te0)
        for shift in (0, 8, 16, 24)
    )


_TE0, _TE1, _TE2, _TE3 = _build_t_tables()


def _sub_word(word: int) -> int:
    """Apply the S-box to each byte of a 32-bit word."""
    return (
        (_SBOX[word >> 24] << 24)
        | (_SBOX[(word >> 16) & 0xFF] << 16)
        | (_SBOX[(word >> 8) & 0xFF] << 8)
        | _SBOX[word & 0xFF]
    )


def _shift_word(a: int, b: int, c: int, d: int) -> int:
    """One output column of ShiftRows: row ``j`` from the ``j``-th word."""
    return (a & 0xFF000000) | (b & 0xFF0000) | (c & 0xFF00) | (d & 0xFF)


class AES128:
    """AES-128 block cipher over single 16-byte blocks.

    Parameters
    ----------
    key:
        16-byte key.
    """

    BLOCK_SIZE = 16

    def __init__(self, key: bytes) -> None:
        if len(key) != self.BLOCK_SIZE:
            raise ValueError(
                f"AES-128 key must be {self.BLOCK_SIZE} bytes, got {len(key)}"
            )
        self._key = bytes(key)
        self._round_keys = self._expand_key(self._key)

    @property
    def key(self) -> bytes:
        """The raw key bytes."""
        return self._key

    @staticmethod
    def _expand_key(key: bytes) -> tuple:
        """The 44 32-bit words of AES-128's 11 round keys."""
        words = [int.from_bytes(key[i : i + 4], "big") for i in range(0, 16, 4)]
        for i in range(4, 44):
            word = words[i - 1]
            if i % 4 == 0:
                word = _sub_word(((word << 8) | (word >> 24)) & 0xFFFFFFFF)
                word ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ word)
        return tuple(words)

    # ------------------------------------------------------------------
    # public block API
    # ------------------------------------------------------------------
    def encrypt_int(self, x: int) -> int:
        """Encrypt one block given as a 128-bit int.

        The state is four column words ``s0..s3`` (row 0 in the top
        byte).  Each inner round is ShiftRows -- column ``c`` takes row
        ``j`` from column ``c + j`` -- then one T-table lookup per byte.
        """
        te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
        rk = self._round_keys
        s0 = (x >> 96) ^ rk[0]
        s1 = ((x >> 64) & 0xFFFFFFFF) ^ rk[1]
        s2 = ((x >> 32) & 0xFFFFFFFF) ^ rk[2]
        s3 = (x & 0xFFFFFFFF) ^ rk[3]
        for r in range(4, 40, 4):
            s0, s1, s2, s3 = (
                te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
                ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[r],
                te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
                ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[r + 1],
                te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
                ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[r + 2],
                te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
                ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[r + 3],
            )
        # Final round: ShiftRows, SubBytes, AddRoundKey -- no MixColumns.
        return (
            (_sub_word(_shift_word(s0, s1, s2, s3)) ^ rk[40]) << 96
            | (_sub_word(_shift_word(s1, s2, s3, s0)) ^ rk[41]) << 64
            | (_sub_word(_shift_word(s2, s3, s0, s1)) ^ rk[42]) << 32
            | (_sub_word(_shift_word(s3, s0, s1, s2)) ^ rk[43])
        )

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        return self.encrypt_int(int.from_bytes(block, "big")).to_bytes(16, "big")

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != self.BLOCK_SIZE:
            raise ValueError(f"block must be 16 bytes, got {len(block)}")
        rk = self._round_keys
        state = list(block)
        self._add_round_key(state, rk[40:44])
        for round_index in range(9, 0, -1):
            self._inv_shift_rows(state)
            self._inv_sub_bytes(state)
            self._add_round_key(state, rk[4 * round_index : 4 * round_index + 4])
            self._inv_mix_columns(state)
        self._inv_shift_rows(state)
        self._inv_sub_bytes(state)
        self._add_round_key(state, rk[0:4])
        return bytes(state)

    # ------------------------------------------------------------------
    # inverse round transformations (state is a flat 16-item list,
    # column major: state[col * 4 + row])
    # ------------------------------------------------------------------
    @staticmethod
    def _add_round_key(state: List[int], words: Sequence[int]) -> None:
        for i in range(16):
            state[i] ^= (words[i >> 2] >> (24 - 8 * (i & 3))) & 0xFF

    @staticmethod
    def _inv_sub_bytes(state: List[int]) -> None:
        for i in range(16):
            state[i] = _INV_SBOX[state[i]]

    @staticmethod
    def _inv_shift_rows(state: List[int]) -> None:
        # row r rotates right by r
        for row in range(1, 4):
            column_values = [state[col * 4 + row] for col in range(4)]
            rotated = column_values[-row:] + column_values[:-row]
            for col in range(4):
                state[col * 4 + row] = rotated[col]

    @staticmethod
    def _inv_mix_columns(state: List[int]) -> None:
        for col in range(4):
            a = state[col * 4 : col * 4 + 4]
            state[col * 4 + 0] = (
                _gmul(a[0], 14) ^ _gmul(a[1], 11) ^ _gmul(a[2], 13) ^ _gmul(a[3], 9)
            )
            state[col * 4 + 1] = (
                _gmul(a[0], 9) ^ _gmul(a[1], 14) ^ _gmul(a[2], 11) ^ _gmul(a[3], 13)
            )
            state[col * 4 + 2] = (
                _gmul(a[0], 13) ^ _gmul(a[1], 9) ^ _gmul(a[2], 14) ^ _gmul(a[3], 11)
            )
            state[col * 4 + 3] = (
                _gmul(a[0], 11) ^ _gmul(a[1], 13) ^ _gmul(a[2], 9) ^ _gmul(a[3], 14)
            )
