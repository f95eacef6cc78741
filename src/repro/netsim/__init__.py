"""Discrete-event network simulator.

Provides the end-to-end substrate the paper's testbed supplied: hosts,
DIP routers, legacy routers, border routers, links with delay and
bandwidth, FN bootstrap (Section 2.3), tunneling across DIP-agnostic
domains and FN-unsupported signalling (Section 2.4).
"""

from repro.netsim.bootstrap import (
    CapabilityMap,
    bootstrap_host,
    bootstrap_host_async,
)
from repro.netsim.engine import Engine
from repro.netsim.links import Link
from repro.netsim.messages import Frame
from repro.netsim.nodes import (
    BorderRouterNode,
    DipRouterNode,
    HostNode,
    LegacyRouterNode,
    Node,
)
from repro.netsim.stats import TraceRecorder
from repro.netsim.topology import Topology

__all__ = [
    "Engine",
    "Frame",
    "Link",
    "Node",
    "HostNode",
    "DipRouterNode",
    "LegacyRouterNode",
    "BorderRouterNode",
    "Topology",
    "TraceRecorder",
    "CapabilityMap",
    "bootstrap_host",
    "bootstrap_host_async",
    "AutonomousSystem",
    "InternetExchange",
    "NetworkSpec",
    "InternetGenerator",
    "InternetPlan",
    "Internet",
]

# The internet generator needs networkx; it is imported on first use of
# one of its names, so simulating a topology (a fabric worker's whole
# job) never loads it.
_INTERNET_NAMES = frozenset(
    {
        "AutonomousSystem",
        "Internet",
        "InternetExchange",
        "InternetGenerator",
        "InternetPlan",
        "NetworkSpec",
    }
)


def __getattr__(name):
    if name in _INTERNET_NAMES:
        from repro.netsim import internet

        return getattr(internet, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
