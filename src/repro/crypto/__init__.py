"""Cryptographic substrate for the OPT realization.

The paper's prototype computes per-hop MACs with the 2EM cipher
(key-alternating Even-Mansour with two public permutations, [2] in the
paper) because it fits the Tofino pipeline better than AES.  This
package provides:

- :mod:`repro.crypto.permutation` -- fixed public pseudorandom
  permutations used as the Even-Mansour rounds;
- :mod:`repro.crypto.even_mansour` -- the 2EM block cipher;
- :mod:`repro.crypto.aes` -- a from-scratch AES-128 used for the
  2EM-vs-AES design-choice ablation;
- :mod:`repro.crypto.mac` -- CBC-MAC over either block cipher;
- :mod:`repro.crypto.prf` -- PRF and DRKey-style key derivation used by
  OPT session setup;
- :mod:`repro.crypto.keys` -- key material containers.
"""

from repro.crypto.aes import AES128
from repro.crypto.even_mansour import EvenMansour2
from repro.crypto.keys import RouterKey
from repro.crypto.mac import CbcMac, mac_bytes
from repro.crypto.permutation import FeistelPermutation
from repro.crypto.prf import derive_key, prf

__all__ = [
    "AES128",
    "EvenMansour2",
    "FeistelPermutation",
    "CbcMac",
    "mac_bytes",
    "prf",
    "derive_key",
    "RouterKey",
]
