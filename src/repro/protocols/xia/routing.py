"""XIA fallback routing.

A router keeps one routing table per principal type it understands.
Forwarding a packet means walking its DAG from the last visited node:

1. if a successor's XID is *local* to this node, advance the pointer to
   that successor (delivering when it is the intent), and continue the
   walk from there;
2. otherwise take the highest-priority successor with a table route and
   forward out of that port;
3. if no successor is local or routable, the packet is unroutable here.

This is the paper's ``F_DAG`` (parse + walk) and ``F_intent`` (decide
what to do when the intent is reached / pick the next intent edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.protocols.xia.dag import DagAddress
from repro.protocols.xia.xid import Xid, XidType


@dataclass(frozen=True)
class RouteDecision:
    """Outcome of one routing step."""

    action: str  # "forward", "deliver", "drop"
    port: int = -1
    last_visited: int = -1
    reason: str = ""


class XiaRouteTable:
    """Per-principal-type routes plus the node's own local XIDs."""

    def __init__(self) -> None:
        self._routes: Dict[XidType, Dict[bytes, int]] = {}
        self._local: set = set()

    def add_route(self, xid: Xid, port: int) -> None:
        """Install a route: packets for ``xid`` leave via ``port``."""
        self._routes.setdefault(xid.xtype, {})[xid.identifier] = port

    def add_local(self, xid: Xid) -> None:
        """Declare ``xid`` as locally attached (host, service, content)."""
        self._local.add((xid.xtype, xid.identifier))

    def is_local(self, xid: Xid) -> bool:
        """True when ``xid`` terminates at this node."""
        return (xid.xtype, xid.identifier) in self._local

    def lookup(self, xid: Xid) -> Optional[int]:
        """Route lookup; None when this node cannot route the type/id."""
        table = self._routes.get(xid.xtype)
        if table is None:
            return None
        return table.get(xid.identifier)


def route_step(
    dag: DagAddress, last_visited: int, table: XiaRouteTable
) -> RouteDecision:
    """Perform one node's routing decision for a packet.

    ``last_visited`` is the DAG node index recorded in the packet header
    (-1 before the first hop).
    """
    current = last_visited
    # Advance through successors that are local to this node.
    advanced = True
    while advanced:
        advanced = False
        for successor in dag.successors(current):
            if table.is_local(dag.nodes[successor].xid):
                if successor == dag.intent_index:
                    return RouteDecision(
                        action="deliver", last_visited=successor
                    )
                current = successor
                advanced = True
                break
    # Forward along the highest-priority routable successor.
    for successor in dag.successors(current):
        port = table.lookup(dag.nodes[successor].xid)
        if port is not None:
            return RouteDecision(
                action="forward", port=port, last_visited=current
            )
    return RouteDecision(
        action="drop",
        last_visited=current,
        reason="no local or routable successor",
    )
