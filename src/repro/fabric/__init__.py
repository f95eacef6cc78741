"""repro.fabric: the synchronized virtual-time co-simulation spine.

Composes the repo's three simulation islands -- netsim topologies, the
batch :class:`~repro.engine.ForwardingEngine`, and the PISA
:class:`~repro.dataplane.dip_pipeline.DipPipeline` -- into one network
under a conservative lookahead-synchronized virtual clock, with
components runnable in-process or as separate ``multiprocessing``
workers without ordering divergence.  See DESIGN.md §3.15.
"""

from repro.fabric.components import (
    EngineRouterComponent,
    HostComponent,
    NetsimComponent,
    PisaRouterComponent,
    PortalNode,
    make_service_delay,
    packet_service_cycles,
)
from repro.fabric.messages import (
    KIND_CONTROL,
    KIND_DIP,
    KIND_IPV4,
    KIND_IPV6,
    Ack,
    Advance,
    Deliver,
    Inject,
)
from repro.fabric.pcap import read_pcap, write_pcap
from repro.fabric.runner import (
    ChannelSpec,
    FabricReport,
    FabricRun,
    duplex,
    records_fingerprint,
)
from repro.fabric.scenario import (
    GoldenSpec,
    golden_fabric,
    golden_netsim,
    golden_traffic,
)
from repro.fabric.sync import Component, payload_digest

__all__ = [
    "Ack",
    "Advance",
    "ChannelSpec",
    "Component",
    "Deliver",
    "EngineRouterComponent",
    "FabricReport",
    "FabricRun",
    "GoldenSpec",
    "HostComponent",
    "Inject",
    "KIND_CONTROL",
    "KIND_DIP",
    "KIND_IPV4",
    "KIND_IPV6",
    "NetsimComponent",
    "PisaRouterComponent",
    "PortalNode",
    "duplex",
    "golden_fabric",
    "golden_netsim",
    "golden_traffic",
    "make_service_delay",
    "packet_service_cycles",
    "payload_digest",
    "read_pcap",
    "records_fingerprint",
    "write_pcap",
]
