"""Longest-prefix-match forwarding table (binary trie).

One table class serves IPv4 (width 32), IPv6 (width 128), and DIP's
32-bit content-name digests (the NDN realization does LPM on a 32-bit
name, Section 4.1).  The trie stores one node per prefix bit, which is
simple and fast enough for the simulation scale of this reproduction;
the ABL-FIB bench measures how lookup cost scales with table size.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.errors import ProtocolError


class _TrieNode:
    __slots__ = ("children", "value", "occupied")

    def __init__(self) -> None:
        self.children: List[Optional["_TrieNode"]] = [None, None]
        self.value: Any = None
        self.occupied = False


class LpmTable:
    """Binary-trie longest-prefix-match table.

    Parameters
    ----------
    width:
        Address width in bits (32 for IPv4, 128 for IPv6).

    Values are arbitrary (typically an egress port number or a next-hop
    descriptor).
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = width
        self._root = _TrieNode()
        self._size = 0
        # Bumped on every insert/remove so decision caches keyed on
        # lookup outcomes (repro.core.flowcache) can invalidate.
        self.generation = 0

    def __len__(self) -> int:
        return self._size

    def _check(self, prefix: int, prefix_len: int) -> None:
        if not 0 <= prefix_len <= self.width:
            raise ProtocolError(
                f"prefix length {prefix_len} out of range for /{self.width}"
            )
        if prefix >> self.width:
            raise ProtocolError(
                f"prefix {prefix:#x} wider than {self.width} bits"
            )
        low_bits = self.width - prefix_len
        if low_bits and prefix & ((1 << low_bits) - 1):
            raise ProtocolError(
                f"prefix {prefix:#x}/{prefix_len} has bits below the mask"
            )

    def insert(self, prefix: int, prefix_len: int, value: Any) -> None:
        """Insert or replace the route ``prefix/prefix_len -> value``."""
        self._check(prefix, prefix_len)
        node = self._root
        for depth in range(prefix_len):
            bit = (prefix >> (self.width - 1 - depth)) & 1
            if node.children[bit] is None:
                node.children[bit] = _TrieNode()
            node = node.children[bit]
        if not node.occupied:
            self._size += 1
        node.value = value
        node.occupied = True
        self.generation += 1

    def remove(self, prefix: int, prefix_len: int) -> bool:
        """Remove a route; returns False when it was not present."""
        self._check(prefix, prefix_len)
        node = self._root
        for depth in range(prefix_len):
            bit = (prefix >> (self.width - 1 - depth)) & 1
            node = node.children[bit]
            if node is None:
                return False
        if not node.occupied:
            return False
        node.occupied = False
        node.value = None
        self._size -= 1
        self.generation += 1
        return True

    def lookup(self, address: int) -> Any:
        """Return the value of the longest matching prefix, or None."""
        if address >> self.width:
            raise ProtocolError(
                f"address {address:#x} wider than {self.width} bits"
            )
        node = self._root
        best = node.value if node.occupied else None
        shift = self.width - 1
        while shift >= 0:
            node = node.children[(address >> shift) & 1]
            if node is None:
                break
            if node.occupied:
                best = node.value
            shift -= 1
        return best

    def routes(self) -> Iterator[Tuple[int, int, Any]]:
        """Yield all installed routes as ``(prefix, prefix_len, value)``."""

        def walk(node: _TrieNode, prefix: int, depth: int):
            if node.occupied:
                yield (prefix << (self.width - depth), depth, node.value)
            for bit in (0, 1):
                child = node.children[bit]
                if child is not None:
                    yield from walk(child, (prefix << 1) | bit, depth + 1)

        yield from walk(self._root, 0, 0)
