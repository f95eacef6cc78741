"""Tests for CBC-MAC over 2EM/AES."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.aes import AES128
from repro.crypto.even_mansour import EvenMansour2
from repro.crypto.mac import CbcMac, mac_bytes
from repro.crypto.permutation import FeistelPermutation

KEY = bytes(range(16))
KEY2 = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestCbcMac:
    def test_tag_size(self):
        assert len(CbcMac(EvenMansour2(KEY)).compute(b"msg")) == 16

    def test_deterministic(self):
        mac = CbcMac(EvenMansour2(KEY))
        assert mac.compute(b"hello") == mac.compute(b"hello")

    def test_message_sensitivity(self):
        mac = CbcMac(EvenMansour2(KEY))
        assert mac.compute(b"hello") != mac.compute(b"hellp")

    def test_key_sensitivity(self):
        a = CbcMac(EvenMansour2(KEY)).compute(b"hello")
        b = CbcMac(EvenMansour2(b"\x01" * 16)).compute(b"hello")
        assert a != b

    def test_length_extension_resistance_basic(self):
        """m and m||0x00 padding-collision must not share tags."""
        mac = CbcMac(EvenMansour2(KEY))
        assert mac.compute(b"abc") != mac.compute(b"abc\x80")
        assert mac.compute(b"") != mac.compute(b"\x00" * 16)

    def test_verify(self):
        mac = CbcMac(EvenMansour2(KEY))
        tag = mac.compute(b"data")
        assert mac.verify(b"data", tag)
        assert not mac.verify(b"data!", tag)

    def test_empty_message(self):
        assert len(CbcMac(EvenMansour2(KEY)).compute(b"")) == 16

    def test_block_boundary_messages(self):
        mac = CbcMac(EvenMansour2(KEY))
        tags = {mac.compute(bytes(n)) for n in (15, 16, 17, 31, 32, 33)}
        assert len(tags) == 6  # all distinct

    def test_aes_backend_works(self):
        assert len(CbcMac(AES128(KEY)).compute(b"msg")) == 16

    def test_backends_disagree(self):
        """2EM and AES are different PRFs -- tags must differ."""
        assert mac_bytes(KEY, b"m", "2em") != mac_bytes(KEY, b"m", "aes")

    def test_rejects_non_128_bit_cipher(self):
        class FakeCipher:
            BLOCK_SIZE = 8

        with pytest.raises(ValueError):
            CbcMac(FakeCipher())

    def test_mac_bytes_unknown_backend(self):
        with pytest.raises(ValueError):
            mac_bytes(KEY, b"m", backend="des")


def _message(length: int) -> bytes:
    return bytes((i * 7 + 3) & 0xFF for i in range(length))


# Known-answer tags of the byte-wise CBC-MAC this module started from:
# (backend, key, message length) -> hex tag of mac_bytes(key,
# _message(length), backend).  They pin every tag OPT, EPIC, F_pass and
# NetFence have ever computed, so any rewrite of the ciphers or the
# chaining must reproduce them bit for bit.
KNOWN_TAGS = {
    ("2em", KEY, 0): "9e1a66e6650d13c9912270b3051f7af8",
    ("2em", KEY, 1): "f0f6b426d35da27364bf8562fc51c177",
    ("2em", KEY, 15): "c8f994e4c21aad96ff4a461ed46e6a5c",
    ("2em", KEY, 16): "89947070635849a32b32a29755ac1a8e",
    ("2em", KEY, 17): "d651ee3df5cbb522a3e7a17fe12d2d83",
    ("2em", KEY, 32): "e2960f2bf3df0b23baef92bf5ffbe949",
    ("2em", KEY, 52): "7fa1fdd24c5b0c09524745cc2abffd6f",
    ("2em", KEY, 68): "2cc36bb1bc055270c2b36dc73c27fe6e",
    ("2em", KEY, 1500): "1422f5eafb98b914cfee06be9bb02790",
    ("2em", KEY2, 0): "203ca1ed3e8339a3e5de5bc56a035b21",
    ("2em", KEY2, 1): "923da7b630ec1a4d73fe2da40c85b3ba",
    ("2em", KEY2, 15): "a832bf93335053cd9460fca5042de8be",
    ("2em", KEY2, 16): "2a064ea65285a5cc394016289f30f964",
    ("2em", KEY2, 17): "fd0537d0634a8b57ba614b2b84b1aea3",
    ("2em", KEY2, 32): "d0bfa4b7094c627988b572a4ba057505",
    ("2em", KEY2, 52): "b85ff9c88d614e98bf3e75a7cba23955",
    ("2em", KEY2, 68): "ce0f07d27ed30a8b7ae889a0f7e1b2c0",
    ("2em", KEY2, 1500): "e1a141e148e611073519a9aa91fc4760",
    ("aes", KEY, 0): "eb583715f834dee5a4d16ee4b9d7760e",
    ("aes", KEY, 1): "6979935c1045aa5eda9b5f841f8f4eaf",
    ("aes", KEY, 15): "c6eb72774db3ccc8234e5b50eadcfc44",
    ("aes", KEY, 16): "447db2b204e8c650f1e81d48d04faa97",
    ("aes", KEY, 17): "e490711b55735b8f6e7e92723ea34d00",
    ("aes", KEY, 32): "c3ad52dffdb39a6a9e799bffca64f4ad",
    ("aes", KEY, 52): "6fe56481d3eea67b09aa6e2f643850ac",
    ("aes", KEY, 68): "8b641477460985282c85abd8a419752c",
    ("aes", KEY, 1500): "60614d712644f3d4e55a35209d4913b4",
    ("aes", KEY2, 0): "e2fe5bd6c1dfcdd19124f03e1a134d3b",
    ("aes", KEY2, 1): "d21820590f608a4896ba33952464d1f4",
    ("aes", KEY2, 15): "149183be4123368e57258d67c6e542b4",
    ("aes", KEY2, 16): "d86f3ec4e4611ba18ee47cbf30124f59",
    ("aes", KEY2, 17): "43b6ecfcedad6989f41403a9fc8568c4",
    ("aes", KEY2, 32): "8429536247f53991087d4361fbf6cce9",
    ("aes", KEY2, 52): "a452e9e0bfe32322bdcc3928fca91698",
    ("aes", KEY2, 68): "7e65e5b97238c2b7533d5f10ed462c4a",
    ("aes", KEY2, 1500): "563ab618fafb55e5af41108e23e63801",
}

# FeistelPermutation(index).apply(bytes(range(16))), same provenance.
KNOWN_PERMUTATIONS = {
    1: "78fc6766e0ce0cf19b29ab86800b81d2",
    2: "13811a106be6f8059c6ea1d3139cfcc7",
}


@pytest.mark.parametrize(
    "backend,key,length,tag",
    [(b, k, n, t) for (b, k, n), t in KNOWN_TAGS.items()],
)
def test_known_answer_tags(backend, key, length, tag):
    assert mac_bytes(key, _message(length), backend).hex() == tag


@pytest.mark.parametrize("index,output", sorted(KNOWN_PERMUTATIONS.items()))
def test_known_answer_permutations(index, output):
    assert FeistelPermutation(index).apply(bytes(range(16))).hex() == output


@given(
    key=st.binary(min_size=16, max_size=16),
    message=st.binary(max_size=100),
)
def test_property_cbc_mac_matches_mac_bytes(key, message):
    assert CbcMac(EvenMansour2(key)).compute(message) == mac_bytes(key, message)
    assert CbcMac(AES128(key)).compute(message) == mac_bytes(
        key, message, "aes"
    )


@given(
    message=st.binary(max_size=200),
    tweak=st.integers(min_value=0, max_value=199),
)
def test_property_single_byte_change_changes_tag(message, tweak):
    if not message:
        return
    index = tweak % len(message)
    mutated = (
        message[:index]
        + bytes([message[index] ^ 0x01])
        + message[index + 1 :]
    )
    assert mac_bytes(KEY, message) != mac_bytes(KEY, mutated)
