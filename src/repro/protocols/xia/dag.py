"""XIA DAG addresses.

An XIA destination is not a single identifier but a DAG whose nodes are
XIDs and whose priority-ordered edges encode fallbacks: "reach the CID
directly if you can; otherwise go to this AD, then that HID, and ask
there".  The *intent* is by convention the DAG's sink (last node).

The DAG has an implicit entry point (the "source" pseudo-node) whose
outgoing edges are stored separately as ``entry_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.errors import ProtocolError
from repro.protocols.xia.xid import Xid

MAX_OUT_EDGES = 4  # XIA caps per-node fallback fanout


@dataclass(frozen=True)
class DagNode:
    """One DAG node: an XID plus priority-ordered successor indices."""

    xid: Xid
    edges: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if len(self.edges) > MAX_OUT_EDGES:
            raise ProtocolError(
                f"DAG node has {len(self.edges)} edges (max {MAX_OUT_EDGES})"
            )


@dataclass(frozen=True)
class DagAddress:
    """A full DAG address.

    Parameters
    ----------
    nodes:
        DAG nodes; the last one is the intent.
    entry_edges:
        Priority-ordered indices the traversal starts from.
    """

    nodes: Tuple[DagNode, ...]
    entry_edges: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ProtocolError("DAG address needs at least one node")
        if not self.entry_edges:
            raise ProtocolError("DAG address needs at least one entry edge")
        if len(self.entry_edges) > MAX_OUT_EDGES:
            raise ProtocolError("too many entry edges")
        for index in self.entry_edges:
            self._check_index(index)
        for node in self.nodes:
            for index in node.edges:
                self._check_index(index)
        self._check_acyclic()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self.nodes):
            raise ProtocolError(f"edge target {index} out of range")

    def _check_acyclic(self) -> None:
        # Kahn-style check; edges always point within the node tuple, so
        # a simple DFS with colors suffices at address-construction time.
        state = [0] * len(self.nodes)  # 0 new, 1 visiting, 2 done

        def visit(index: int) -> None:
            if state[index] == 1:
                raise ProtocolError("DAG address contains a cycle")
            if state[index] == 2:
                return
            state[index] = 1
            for succ in self.nodes[index].edges:
                visit(succ)
            state[index] = 2

        for index in self.entry_edges:
            visit(index)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def intent_index(self) -> int:
        """Index of the intent node (the sink, by convention the last)."""
        return len(self.nodes) - 1

    @property
    def intent(self) -> Xid:
        """The intent XID."""
        return self.nodes[self.intent_index].xid

    def successors(self, node_index: int) -> Tuple[int, ...]:
        """Priority-ordered successor indices of ``node_index``.

        ``node_index`` of -1 means the entry pseudo-node.
        """
        if node_index == -1:
            return self.entry_edges
        self._check_index(node_index)
        return self.nodes[node_index].edges

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------
    @classmethod
    def direct(cls, intent: Xid) -> "DagAddress":
        """Trivial DAG: source -> intent."""
        return cls(nodes=(DagNode(intent),), entry_edges=(0,))

    @classmethod
    def with_fallback(
        cls, intent: Xid, fallback_path: Sequence[Xid]
    ) -> "DagAddress":
        """Classic fallback DAG.

        The source tries the intent directly (priority edge); failing
        that it walks ``fallback_path`` (e.g. AD -> HID), every node of
        which again prefers a shortcut straight to the intent.
        """
        if not fallback_path:
            return cls.direct(intent)
        nodes = []
        intent_index = len(fallback_path)
        for position, xid in enumerate(fallback_path):
            next_index = position + 1
            # Prefer jumping straight to the intent, else continue path.
            edges = (
                (intent_index,)
                if next_index == intent_index
                else (intent_index, next_index)
            )
            nodes.append(DagNode(xid, edges))
        nodes.append(DagNode(intent))
        return cls(nodes=tuple(nodes), entry_edges=(intent_index, 0))

    # ------------------------------------------------------------------
    # wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize: node count, entry edges, then each node."""
        out = bytearray()
        out.append(len(self.nodes))
        out.append(len(self.entry_edges))
        out.extend(self.entry_edges)
        for node in self.nodes:
            out += node.xid.encode()
            out.append(len(node.edges))
            out.extend(node.edges)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["DagAddress", int]:
        """Parse; returns the address and the bytes consumed."""
        if len(data) < 2:
            raise ProtocolError("truncated DAG address")
        node_count = data[0]
        entry_count = data[1]
        offset = 2
        if len(data) < offset + entry_count:
            raise ProtocolError("truncated DAG entry edges")
        entry_edges = tuple(data[offset : offset + entry_count])
        offset += entry_count
        nodes = []
        for _ in range(node_count):
            if len(data) < offset + Xid.ENCODED_SIZE + 1:
                raise ProtocolError("truncated DAG node")
            xid = Xid.decode(data[offset : offset + Xid.ENCODED_SIZE])
            offset += Xid.ENCODED_SIZE
            edge_count = data[offset]
            offset += 1
            if len(data) < offset + edge_count:
                raise ProtocolError("truncated DAG node edges")
            edges = tuple(data[offset : offset + edge_count])
            offset += edge_count
            nodes.append(DagNode(xid, edges))
        return cls(nodes=tuple(nodes), entry_edges=entry_edges), offset
