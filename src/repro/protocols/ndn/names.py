"""Hierarchical NDN names and their 32-bit digests.

NDN routes on hierarchical names like ``/seu/hotnets/paper.pdf``.  The
paper's Tofino prototype compresses the content name into a 32-bit
field ("we take the 32-bit content name for the packet forwarding",
Section 4.1); :meth:`Name.digest32` is that compression, an FNV-1a hash
over the wire encoding.  Full-name longest-prefix matching lives in
:mod:`repro.protocols.ndn.fib`.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from repro.errors import ProtocolError

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193


def _fnv1a(data: bytes) -> int:
    value = _FNV_OFFSET
    for byte in data:
        value ^= byte
        value = (value * _FNV_PRIME) & 0xFFFFFFFF
    return value


class Name:
    """An immutable hierarchical name (sequence of byte components).

    Examples
    --------
    >>> name = Name.parse("/seu/hotnets/paper.pdf")
    >>> len(name)
    3
    >>> name.prefix(2) == Name.parse("/seu/hotnets")
    True
    """

    __slots__ = ("_components",)

    def __init__(self, components: Iterable[bytes] = ()) -> None:
        comps = tuple(bytes(c) for c in components)
        for comp in comps:
            if not comp:
                raise ProtocolError("name components must be non-empty")
        self._components = comps

    @classmethod
    def parse(cls, text: str) -> "Name":
        """Parse a ``/``-separated URI-style name."""
        if not text.startswith("/"):
            raise ProtocolError(f"name {text!r} must start with '/'")
        body = text[1:]
        if not body:
            return cls(())
        return cls(part.encode("utf-8") for part in body.split("/"))

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def components(self) -> Tuple[bytes, ...]:
        """The name's components."""
        return self._components

    def __len__(self) -> int:
        return len(self._components)

    def __getitem__(self, index):
        got = self._components[index]
        return Name(got) if isinstance(index, slice) else got

    def __iter__(self):
        return iter(self._components)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Name):
            return NotImplemented
        return self._components == other._components

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return f"Name({str(self)!r})"

    def __str__(self) -> str:
        if not self._components:
            return "/"
        return "/" + "/".join(
            comp.decode("utf-8", errors="backslashreplace")
            for comp in self._components
        )

    # ------------------------------------------------------------------
    # hierarchy
    # ------------------------------------------------------------------
    def prefix(self, length: int) -> "Name":
        """Return the name truncated to its first ``length`` components."""
        if not 0 <= length <= len(self):
            raise ProtocolError(
                f"prefix length {length} out of range for {self!r}"
            )
        return Name(self._components[:length])

    def append(self, component: bytes) -> "Name":
        """Return a new name with one more component."""
        return Name(self._components + (bytes(component),))

    # ------------------------------------------------------------------
    # wire format and digest
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Length-prefixed wire encoding of the components."""
        out = bytearray()
        for comp in self._components:
            if len(comp) > 0xFFFF:
                raise ProtocolError("name component longer than 65535 bytes")
            out += len(comp).to_bytes(2, "big")
            out += comp
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "Name":
        """Inverse of :meth:`encode`."""
        comps = []
        offset = 0
        while offset < len(data):
            if offset + 2 > len(data):
                raise ProtocolError("truncated name component length")
            comp_len = int.from_bytes(data[offset : offset + 2], "big")
            offset += 2
            if offset + comp_len > len(data):
                raise ProtocolError("truncated name component")
            comps.append(data[offset : offset + comp_len])
            offset += comp_len
        return cls(comps)

    def digest32(self) -> int:
        """32-bit digest used as the DIP content-name field (Section 4.1).

        The digest preserves one level of hierarchy so the paper's
        "longest prefix match with the content name" stays meaningful
        at 32 bits: the high 16 bits hash the first component (the
        routable prefix) and the low 16 bits hash the remainder, so a
        16-bit LPM route on ``/seu`` matches every ``/seu/...`` digest.
        """
        if not self._components:
            return 0
        head = _fnv1a(self._components[0]) & 0xFFFF
        rest = Name(self._components[1:]).encode()
        tail = (_fnv1a(rest) & 0xFFFF) if rest else 0
        return (head << 16) | tail

    def digest_route(self) -> Tuple[int, int]:
        """``(prefix, prefix_len)`` for installing this name as a route.

        Single-component names route as a 16-bit prefix covering all
        content under them; longer names route as exact 32-bit entries.
        """
        digest = self.digest32()
        if len(self._components) <= 1:
            return digest & 0xFFFF0000, 16
        return digest, 32
