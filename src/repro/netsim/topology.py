"""Topology builder: nodes, links, and wiring helpers.

Exposes a networkx graph so tests and examples can ask structural
questions (paths, degrees) about the network they built.  The graph is
built on first access from the nodes and links recorded here, so a
topology that is only simulated never imports networkx.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple, Union

from repro.errors import SimulationError
from repro.netsim.engine import Engine
from repro.netsim.links import Link
from repro.netsim.nodes import DipRouterNode, Node
from repro.netsim.stats import TraceRecorder

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """A network under construction.

    Parameters
    ----------
    engine:
        Shared simulation engine (created when omitted).
    trace:
        Shared trace recorder (enabled by default).
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.engine = engine if engine is not None else Engine()
        self.trace = trace if trace is not None else TraceRecorder()
        self._nodes: Dict[str, Node] = {}
        # (a, b, delay, bandwidth) per connect, in wiring order.
        self._edges: List[Tuple[str, str, float, float]] = []
        self._graph: Optional["nx.Graph"] = None

    @property
    def graph(self) -> "nx.Graph":
        """The wiring as a networkx graph (built on first access after
        each ``add``/``connect``)."""
        if self._graph is None:
            import networkx as nx

            graph = nx.Graph()
            graph.add_nodes_from(self._nodes)
            for a, b, delay, bandwidth in self._edges:
                graph.add_edge(a, b, delay=delay, bandwidth=bandwidth)
            self._graph = graph
        return self._graph

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add(self, node: Node) -> Node:
        """Register a node (its engine/trace must be this topology's)."""
        if node.node_id in self._nodes:
            raise SimulationError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._graph = None
        return node

    def node(self, node_id: str) -> Node:
        """Fetch a node by id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node {node_id!r}") from None

    def nodes(self) -> List[Node]:
        """All registered nodes."""
        return list(self._nodes.values())

    def _resolve(self, endpoint: Union[str, Node]) -> Node:
        """Turn an id or a Node object into a registered node.

        Node objects not yet registered are added on the spot, so
        generated topologies can build and wire in one pass.
        """
        if isinstance(endpoint, Node):
            registered = self._nodes.get(endpoint.node_id)
            if registered is None:
                return self.add(endpoint)
            if registered is not endpoint:
                raise SimulationError(
                    f"node id {endpoint.node_id!r} is registered to a "
                    "different object"
                )
            return endpoint
        if isinstance(endpoint, str):
            return self.node(endpoint)
        raise SimulationError(f"not a node or node id: {endpoint!r}")

    def connect(
        self,
        a: Union[str, Node],
        a_port: Optional[Union[int, str, Node]] = None,
        b: Optional[Union[str, Node]] = None,
        b_port: Optional[int] = None,
        delay: float = 0.001,
        bandwidth: float = 0.0,
        queue_capacity: int = 0,
    ) -> Link:
        """Create a link between two nodes.

        Endpoints may be node ids or :class:`Node` objects (unregistered
        objects are added automatically).  Ports are optional: an
        omitted port is auto-allocated via :meth:`Node.allocate_port`,
        so all of these are equivalent ways to wire ``a`` to ``b``:

        - ``connect("a", 0, "b", 1)`` (the original positional form)
        - ``connect(a_node, b_node)``
        - ``connect("a", "b")``
        - ``connect(a_node, 0, b_node)`` (pin only one side)

        Because ports are ints and endpoints are ids/objects, the
        two-endpoint form is recognized positionally: a str/Node in the
        ``a_port`` slot is treated as the ``b`` endpoint.
        """
        if isinstance(a_port, (str, Node)):
            if b is not None and b_port is not None:
                raise SimulationError("connect(): too many endpoints")
            # connect(a, b[, b_port]): shift the arguments over.
            a_port, b, b_port = None, a_port, b
        if b is None:
            raise SimulationError("connect() needs two endpoints")
        for port in (a_port, b_port):
            if port is not None and not isinstance(port, int):
                raise SimulationError(f"not a port number: {port!r}")
        node_a = self._resolve(a)
        node_b = self._resolve(b)
        if node_a is node_b:
            raise SimulationError(
                f"cannot connect {node_a.node_id!r} to itself"
            )
        if a_port is None:
            a_port = node_a.allocate_port()
        if b_port is None:
            b_port = node_b.allocate_port()
        link = Link(
            self.engine,
            delay=delay,
            bandwidth=bandwidth,
            queue_capacity=queue_capacity,
        )
        node_a.attach_link(a_port, link)
        node_b.attach_link(b_port, link)
        self._edges.append((node_a.node_id, node_b.node_id, delay, bandwidth))
        self._graph = None
        return link

    # ------------------------------------------------------------------
    # wiring helpers
    # ------------------------------------------------------------------
    def wire_neighbor_labels(self) -> None:
        """Populate every DIP router's port -> upstream-neighbour map.

        F_parm uses these as the "previous validator node label"
        (Section 3, OPT); in deployment they come from adjacency
        discovery.
        """
        for node in self._nodes.values():
            if not isinstance(node, DipRouterNode):
                continue
            for port, link in node.ports.items():
                peer, _peer_port = link.peer_of(node.node_id)
                node.state.neighbor_labels[port] = peer.node_id

    def run(self, until: Optional[float] = None, max_events: int = 1_000_000) -> int:
        """Run the shared engine."""
        return self.engine.run(until=until, max_events=max_events)
