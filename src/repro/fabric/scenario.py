"""The golden co-simulation scenario and its monolithic twin.

A seeded multi-AS internet built two ways from the same spec:

- :func:`golden_fabric` composes it as fabric components spanning all
  three simulation islands -- transit AS 0 is an engine-backed router
  (:class:`~repro.fabric.components.EngineRouterComponent`), transit
  AS 1 a PISA-pipeline router whose cycle cost is service latency, and
  every stub AS a self-contained netsim island (router + hosts);
- :func:`golden_netsim` builds the *same* network as one monolithic
  netsim :class:`~repro.netsim.topology.Topology` (PISA service
  modeled via ``DipRouterNode(service_delay=...)`` from the shared
  cycle function).

Both runs share node ids, link latencies, FIB contents, the traffic
schedule, and -- crucially -- the float arithmetic order of every
arrival time (``(t + service) + latency`` on both paths), so their
delivery-record sets are equal element-for-element, not merely
statistically.  That identity is the fabric's correctness oracle,
asserted in tests, the CI smoke job, and ``repro fabric --compare``.

Everything here is module-level and :func:`functools.partial`-friendly
because multiprocess fabric runs pickle the component factories into
spawn workers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.errors import FabricError
from repro.fabric.components import (
    EngineRouterComponent,
    NetsimComponent,
    PisaRouterComponent,
    make_service_delay,
)
from repro.fabric.runner import ChannelSpec, FabricRun, duplex, records_fingerprint
from repro.fabric.sync import payload_digest
from repro.netsim.nodes import DipRouterNode, HostNode
from repro.netsim.topology import Topology
from repro.realize import build_ipv4_packet

TRANSIT_ENGINE = "t0"
TRANSIT_PISA = "t1"


@dataclass(frozen=True)
class GoldenSpec:
    """One reproducible golden scenario (picklable, hashable).

    ``ases`` counts every AS including the two transits; stubs are ASes
    2..ases-1, attached alternately to the engine transit (even) and
    the PISA transit (odd).  ``spacing`` is the gap between host sends;
    ``latency`` the inter-component link delay (also the lookahead);
    ``intra_latency`` the host-to-router delay inside a stub;
    ``cycle_time`` seconds per PISA cycle.
    """

    seed: int = 0
    ases: int = 10
    hosts_per_as: int = 2
    packets: int = 200
    spacing: float = 1e-4
    latency: float = 5e-3
    intra_latency: float = 1e-3
    cycle_time: float = 1e-9

    def __post_init__(self) -> None:
        if self.ases < 4:
            raise FabricError("golden needs >= 4 ASes (2 transits + stubs)")
        if self.hosts_per_as < 1:
            raise FabricError("golden needs >= 1 host per stub AS")
        if self.packets < 0:
            raise FabricError("golden packets must be >= 0")


# ----------------------------------------------------------------------
# addressing and wiring (shared by both builds)
# ----------------------------------------------------------------------
def as_prefix(asn: int) -> Tuple[int, int]:
    """The /16 owned by ``asn``."""
    return asn << 16, 16


def host_address(asn: int, index: int) -> int:
    return (asn << 16) | (index + 1)


def stub_name(asn: int) -> str:
    return f"s{asn}"


def stub_router_id(asn: int) -> str:
    return f"s{asn}-r"


def host_id(asn: int, index: int) -> str:
    return f"s{asn}-h{index}"


def stub_transit(asn: int) -> str:
    """Which transit a stub homes to (even -> engine, odd -> PISA)."""
    return TRANSIT_ENGINE if asn % 2 == 0 else TRANSIT_PISA


def transit_port_of(spec: GoldenSpec, asn: int) -> int:
    """The fabric port a stub occupies on its transit (0 = peering)."""
    return 1 + (asn - 2) // 2


def golden_channels(spec: GoldenSpec) -> List[ChannelSpec]:
    """Every fabric channel, in the canonical scenario order."""
    channels = duplex(TRANSIT_ENGINE, 0, TRANSIT_PISA, 0, spec.latency)
    for asn in range(2, spec.ases):
        channels.extend(
            duplex(
                stub_transit(asn),
                transit_port_of(spec, asn),
                stub_name(asn),
                0,
                spec.latency,
            )
        )
    return channels


def transit_state(spec: GoldenSpec, which: str) -> NodeState:
    """FIB for a transit: stub /16s locally or via the peering port."""
    state = NodeState(node_id=which)
    for asn in range(2, spec.ases):
        prefix, plen = as_prefix(asn)
        if stub_transit(asn) == which:
            state.fib_v4.insert(prefix, plen, transit_port_of(spec, asn))
        else:
            state.fib_v4.insert(prefix, plen, 0)
    return state


def stub_router_state(spec: GoldenSpec, asn: int) -> NodeState:
    """FIB for a stub router: /32 per local host, /16s via uplink.

    Host ``j`` sits on router port ``j``; the uplink (portal or transit
    link) occupies port ``hosts_per_as``.
    """
    state = NodeState(node_id=stub_router_id(asn))
    uplink = spec.hosts_per_as
    for index in range(spec.hosts_per_as):
        state.fib_v4.insert(host_address(asn, index), 32, index)
    for other in range(2, spec.ases):
        if other == asn:
            continue
        prefix, plen = as_prefix(other)
        state.fib_v4.insert(prefix, plen, uplink)
    return state


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Send:
    """One scheduled host send."""

    serial: int
    time: float
    src_asn: int
    src_host: int
    dst_asn: int
    dst_host: int

    def packet(self):
        return build_ipv4_packet(
            dst=host_address(self.dst_asn, self.dst_host),
            src=host_address(self.src_asn, self.src_host),
            payload=self.serial.to_bytes(8, "big"),
        )


def golden_traffic(spec: GoldenSpec) -> List[Send]:
    """The seeded schedule: cross-stub sends with unique payloads."""
    rng = random.Random(spec.seed)
    stubs = list(range(2, spec.ases))
    sends = []
    for serial in range(spec.packets):
        src_asn = rng.choice(stubs)
        dst_asn = rng.choice([a for a in stubs if a != src_asn])
        sends.append(
            Send(
                serial=serial,
                time=(serial + 1) * spec.spacing,
                src_asn=src_asn,
                src_host=rng.randrange(spec.hosts_per_as),
                dst_asn=dst_asn,
                dst_host=rng.randrange(spec.hosts_per_as),
            )
        )
    return sends


# ----------------------------------------------------------------------
# fabric component factories (module-level: pickled into workers)
# ----------------------------------------------------------------------
def make_engine_transit(spec: GoldenSpec) -> EngineRouterComponent:
    return EngineRouterComponent(
        TRANSIT_ENGINE,
        state_factory=partial(transit_state, spec, TRANSIT_ENGINE),
        batching="window",
    )


def make_pisa_transit(spec: GoldenSpec) -> PisaRouterComponent:
    return PisaRouterComponent(
        TRANSIT_PISA,
        state_factory=partial(transit_state, spec, TRANSIT_PISA),
        cost_model=CycleCostModel(),
        cycle_time=spec.cycle_time,
    )


def make_stub(
    spec: GoldenSpec, asn: int, sends: Sequence[Send]
) -> NetsimComponent:
    """One stub AS: router + hosts, ``sends`` (its own) scheduled, sinks
    wired."""
    component = NetsimComponent(stub_name(asn))
    topo = component.topology
    router = DipRouterNode(
        stub_router_id(asn),
        topo.engine,
        trace=topo.trace,
        state=stub_router_state(spec, asn),
    )
    topo.add(router)
    for index in range(spec.hosts_per_as):
        host = HostNode(host_id(asn, index), topo.engine, trace=topo.trace)
        topo.add(host)
        topo.connect(
            router, index, host, 0, delay=spec.intra_latency
        )
        component.record_host(host)
    component.open_port(0, router.node_id, spec.hosts_per_as)
    for send in sends:
        component.schedule_send(
            host_id(asn, send.src_host), send.time, send.packet()
        )
    return component


def golden_fabric(
    spec: GoldenSpec,
    processes: int = 1,
    registry=None,
    scheduler_seed: Optional[int] = None,
) -> FabricRun:
    """The golden scenario wired as a fabric run (not yet started).

    The traffic schedule is generated once here, and each stub factory
    carries only its own sends.
    """
    sends: Dict[int, List[Send]] = {asn: [] for asn in range(2, spec.ases)}
    for send in golden_traffic(spec):
        sends[send.src_asn].append(send)
    factories: Dict[str, Any] = {
        TRANSIT_ENGINE: partial(make_engine_transit, spec),
        TRANSIT_PISA: partial(make_pisa_transit, spec),
    }
    for asn in range(2, spec.ases):
        factories[stub_name(asn)] = partial(make_stub, spec, asn, sends[asn])
    return FabricRun(
        factories,
        golden_channels(spec),
        processes=processes,
        registry=registry,
        scheduler_seed=scheduler_seed,
    )


# ----------------------------------------------------------------------
# the monolithic twin
# ----------------------------------------------------------------------
def golden_netsim(spec: GoldenSpec) -> Dict[str, Any]:
    """Run the same network as one netsim topology; return its report.

    Node ids, FIBs, latencies and the traffic schedule are built from
    the same functions the fabric factories use; the PISA transit's
    cycle cost becomes a ``service_delay`` on a plain router node via
    the shared :func:`~repro.fabric.components.packet_service_cycles`.
    """
    from repro.netsim.stats import TraceRecorder

    topo = Topology(trace=TraceRecorder(enabled=False))
    records: List[Tuple[float, str, str]] = []

    t0 = DipRouterNode(
        TRANSIT_ENGINE, topo.engine, trace=topo.trace,
        state=transit_state(spec, TRANSIT_ENGINE),
    )
    t1 = DipRouterNode(
        TRANSIT_PISA, topo.engine, trace=topo.trace,
        state=transit_state(spec, TRANSIT_PISA),
        service_delay=make_service_delay(CycleCostModel(), spec.cycle_time),
    )
    topo.add(t0)
    topo.add(t1)
    topo.connect(t0, 0, t1, 0, delay=spec.latency)

    def recorder(node, packet, port):
        records.append(
            (topo.engine.now, node.node_id, payload_digest(packet.encode()))
        )

    for asn in range(2, spec.ases):
        router = DipRouterNode(
            stub_router_id(asn), topo.engine, trace=topo.trace,
            state=stub_router_state(spec, asn),
        )
        topo.add(router)
        for index in range(spec.hosts_per_as):
            host = HostNode(
                host_id(asn, index), topo.engine, trace=topo.trace,
                app=recorder,
            )
            topo.add(host)
            topo.connect(router, index, host, 0, delay=spec.intra_latency)
        topo.connect(
            stub_transit(asn),
            transit_port_of(spec, asn),
            router.node_id,
            spec.hosts_per_as,
            delay=spec.latency,
        )

    injected = 0
    for send in golden_traffic(spec):
        host = topo.node(host_id(send.src_asn, send.src_host))
        topo.engine.schedule_at(send.time, host.send_packet, send.packet())
        injected += 1
    events = topo.engine.run(max_events=50_000_000)

    records.sort()
    return {
        "records": records,
        "fingerprint": records_fingerprint(records),
        "counters": {
            "injected": injected,
            "delivered": len(records),
            "sim_events": events,
        },
    }
