"""CBC-MAC over a pluggable block cipher.

OPT's per-hop tag updates are MAC computations over header fields.  The
paper computes them with 2EM on Tofino; we expose a CBC-MAC that accepts
either :class:`~repro.crypto.even_mansour.EvenMansour2` or
:class:`~repro.crypto.aes.AES128` so the ABL-MAC ablation can compare
the two backends on the same code path.

Messages are padded with the unambiguous 0x80 00..00 scheme and the
length is mixed into the first block, which avoids the classic
variable-length CBC-MAC forgery for this protocol's fixed-layout use.

The chain runs on 128-bit ints: each padded block is read once with
``int.from_bytes``, XORed into the state as an int and handed to the
cipher's ``encrypt_int``; only the final tag is converted back to bytes.
"""

from __future__ import annotations

import functools
from typing import Union

from repro.crypto.aes import AES128
from repro.crypto.even_mansour import EvenMansour2

BlockCipher = Union[EvenMansour2, AES128]

_BLOCK = 16

_BACKENDS = {"2em": EvenMansour2, "aes": AES128}

# DRKey keys derive from packet session IDs, so the set of keys a router
# MACs under is unbounded: the per-key memo must be bounded too.
_MAC_CACHE_BOUND = 4096


def _pad(message: bytes) -> bytes:
    """Pad with 0x80 then zeros to a multiple of the block size."""
    padded = message + b"\x80"
    remainder = len(padded) % _BLOCK
    if remainder:
        padded += bytes(_BLOCK - remainder)
    return padded


class CbcMac:
    """CBC-MAC with length prepending over a 128-bit block cipher.

    Parameters
    ----------
    cipher:
        A block cipher instance exposing ``encrypt_int`` over 128-bit
        ints.
    """

    TAG_SIZE = _BLOCK

    def __init__(self, cipher: BlockCipher) -> None:
        if getattr(cipher, "BLOCK_SIZE", None) != _BLOCK:
            raise ValueError("CbcMac requires a 128-bit block cipher")
        self._cipher = cipher

    def compute(self, message: bytes) -> bytes:
        """Return the 16-byte tag of ``message``."""
        encrypt = self._cipher.encrypt_int
        padded = _pad(message)
        state = encrypt(len(message))
        for offset in range(0, len(padded), _BLOCK):
            block = int.from_bytes(padded[offset : offset + _BLOCK], "big")
            state = encrypt(state ^ block)
        return state.to_bytes(_BLOCK, "big")

    def verify(self, message: bytes, tag: bytes) -> bool:
        """Check ``tag`` against the MAC of ``message``."""
        return self.compute(message) == tag


def mac_bytes(key: bytes, message: bytes, backend: str = "2em") -> bytes:
    """Convenience one-shot MAC.

    Parameters
    ----------
    key:
        16-byte MAC key.
    message:
        Arbitrary-length message.
    backend:
        ``"2em"`` (paper default) or ``"aes"``.
    """
    return _cbc_mac(bytes(key), backend).compute(message)


@functools.lru_cache(maxsize=_MAC_CACHE_BOUND)
def _cbc_mac(key: bytes, backend: str) -> CbcMac:
    """The CBC-MAC for ``key`` under ``backend``, built once per key
    (AES's key schedule alone costs more than a 2EM tag)."""
    try:
        cipher_class = _BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown MAC backend {backend!r}") from None
    return CbcMac(cipher_class(key))
