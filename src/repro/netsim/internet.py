"""Internet-scale multi-AS topology generation (ROADMAP scale-out layer).

Seed-emulator-style declarative description objects —
:class:`AutonomousSystem`, :class:`InternetExchange`,
:class:`NetworkSpec` — plus an :class:`InternetGenerator` that renders a
seeded, realistic transit/peering/stub hierarchy into the existing
:class:`~repro.netsim.topology.Topology` machinery:

- every AS gets an FN capability *profile* (a restricted
  :class:`~repro.core.registry.OperationRegistry`, Section 2.4's
  heterogeneous configurations) advertised into the
  :class:`~repro.netsim.bootstrap.CapabilityMap` keyed by AS id;
- partial adoption (Section 2.4): a seeded *staged* adoption order makes
  the DIP sets at increasing fractions nest, so ``adoption=0.05`` and
  ``adoption=0.80`` describe the same internet at two deployment stages;
- legacy ASes form best-effort-IP cores; DIP-in-IPv4 tunnels
  (:mod:`repro.netsim.tunnel`) are placed automatically across every
  legacy component, hub-and-spoke between its DIP border ASes;
- stub ASes carry host populations that bootstrap their AS's FN set via
  the Section 2.3 DHCP-like discovery exchange.

The generator is split into a pure :meth:`InternetGenerator.plan` (a
deterministic description with a content :meth:`~InternetPlan.fingerprint`
— same spec, same bytes) and :meth:`InternetGenerator.build`, which
materializes the plan into simulator nodes, links, routes and tunnels.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.fn import OperationKey
from repro.core.registry import OperationRegistry, default_registry
from repro.errors import SimulationError
from repro.netsim.bootstrap import CapabilityMap, bootstrap_host_async
from repro.netsim.nodes import (
    BorderRouterNode,
    HostNode,
    LegacyRouterNode,
    Node,
)
from repro.netsim.topology import Topology

# ----------------------------------------------------------------------
# capability profiles (Section 2.4 heterogeneous configurations)
# ----------------------------------------------------------------------

#: Named FN capability sets an AS can deploy.  All profiles include the
#: DIP-32 forwarding triple (F_match32/F_source) plus FIB/PIT and F_pass,
#: so any host can construct plain IPv4-equivalent packets; they differ
#: in the optional machinery (security chain, telemetry, congestion).
PROFILES: Dict[str, FrozenSet[int]] = {
    "full": frozenset(int(key) for key in OperationKey),
    "core": frozenset({
        OperationKey.MATCH_32, OperationKey.MATCH_128, OperationKey.SOURCE,
        OperationKey.FIB, OperationKey.PIT, OperationKey.PASS,
    }),
    "secure": frozenset({
        OperationKey.MATCH_32, OperationKey.MATCH_128, OperationKey.SOURCE,
        OperationKey.FIB, OperationKey.PIT, OperationKey.PASS,
        OperationKey.PARM, OperationKey.MAC, OperationKey.MARK,
        OperationKey.VERIFY,
    }),
    "telemetry": frozenset({
        OperationKey.MATCH_32, OperationKey.MATCH_128, OperationKey.SOURCE,
        OperationKey.FIB, OperationKey.PIT, OperationKey.PASS,
        OperationKey.TELEMETRY, OperationKey.TELEMETRY_ARRAY,
        OperationKey.CONG_MARK, OperationKey.POLICE,
    }),
}

#: ``(profile, weight)`` pairs used when a spec doesn't pin profiles.
DEFAULT_PROFILE_MIX: Tuple[Tuple[str, int], ...] = (
    ("full", 3), ("core", 3), ("secure", 2), ("telemetry", 2),
)

ROLE_TRANSIT = "transit"
ROLE_REGIONAL = "regional"
ROLE_STUB = "stub"

#: Reserved /16 for tunnel endpoint addresses (ASNs stay below this).
_TUNNEL_NET = 0xFFFF << 16


def profile_registry(profile: str) -> OperationRegistry:
    """The restricted operation registry for a capability profile."""
    try:
        keys = PROFILES[profile]
    except KeyError:
        raise SimulationError(f"unknown capability profile {profile!r}") from None
    registry = default_registry()
    if keys >= set(registry.supported_keys()):
        return registry
    return registry.restricted(keys)


class ProfileRegistryFactory:
    """Picklable zero-arg registry factory for one capability profile.

    Plugs straight into ``ForwardingEngine(registry_factory=...)`` (the
    PR-4 heterogeneous-node plumbing), including the process backend.
    """

    def __init__(self, profile: str) -> None:
        self.profile = profile

    def __call__(self) -> OperationRegistry:
        return profile_registry(self.profile)


def as_prefix(asn: int) -> Tuple[int, int]:
    """The /16 IPv4 prefix owned by ``asn``: ``(prefix, prefix_len)``."""
    return asn << 16, 16


def tunnel_endpoint_v4(asn: int) -> int:
    """The reserved tunnel-endpoint address of AS ``asn``'s border."""
    return _TUNNEL_NET | asn


# ----------------------------------------------------------------------
# description objects
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class AutonomousSystem:
    """One AS in the generated internet."""

    asn: int
    role: str                     # transit | regional | stub
    dip: bool                     # DIP-deployed vs legacy best-effort IP
    profile: str                  # capability profile name (see PROFILES)
    hosts: int = 0                # end hosts (stub ASes only)

    @property
    def as_id(self) -> str:
        return f"AS{self.asn}"

    @property
    def router_id(self) -> str:
        return f"as{self.asn}-r0"

    def host_id(self, index: int) -> str:
        return f"as{self.asn}-h{index}"

    def host_address(self, index: int) -> int:
        """IPv4 address of host ``index`` inside this AS's /16."""
        prefix, _ = as_prefix(self.asn)
        return prefix | (index + 1)


@dataclass(frozen=True)
class InternetExchange:
    """An IXP: a meeting point whose members may peer pairwise."""

    ix_id: int
    members: Tuple[int, ...]

    @property
    def name(self) -> str:
        return f"IX{self.ix_id}"


@dataclass(frozen=True)
class TunnelPlan:
    """One DIP-in-IPv4 tunnel across a legacy component (Section 2.4).

    ``via`` is the legacy AS path the encapsulated packets traverse,
    spoke-side entry first, hub-side entry last.
    """

    spoke: int
    hub: int
    via: Tuple[int, ...]


@dataclass(frozen=True)
class NetworkSpec:
    """Declarative description of an internet to generate.

    Everything downstream — graph shape, adoption order, capability
    profiles, tunnel placement — is a pure function of this spec, so
    equal specs produce byte-identical plans (:meth:`InternetPlan.fingerprint`).
    """

    seed: int = 0
    transit: int = 4              # tier-1 ASes (full mesh)
    regional: int = 16            # mid-tier providers
    stub: int = 60                # edge ASes with hosts
    ix_count: int = 2             # internet exchanges
    adoption: float = 1.0         # fraction of ASes that deploy DIP
    hosts_per_stub: int = 2
    multihome: int = 2            # providers per stub AS
    profile_mix: Tuple[Tuple[str, int], ...] = field(
        default=DEFAULT_PROFILE_MIX
    )

    def __post_init__(self) -> None:
        counts = (self.regional, self.stub, self.ix_count, self.hosts_per_stub)
        if self.transit < 1 or min(counts) < 0:
            raise SimulationError("spec needs >=1 transit AS, counts >= 0")
        if not 0.0 <= self.adoption <= 1.0:
            raise SimulationError("adoption must be within [0, 1]")
        if self.multihome < 1:
            raise SimulationError("multihome must be >= 1")
        if self.total_ases >= 0xFFFF:
            raise SimulationError("ASN space is capped below 65535")
        for name, weight in self.profile_mix:
            if name not in PROFILES:
                raise SimulationError(f"unknown profile {name!r} in mix")
            if weight <= 0:
                raise SimulationError("profile weights must be positive")

    @property
    def total_ases(self) -> int:
        return self.transit + self.regional + self.stub

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["profile_mix"] = [list(pair) for pair in self.profile_mix]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NetworkSpec":
        kwargs = dict(data)
        if "profile_mix" in kwargs:
            kwargs["profile_mix"] = tuple(
                (str(name), int(weight)) for name, weight in kwargs["profile_mix"]
            )
        return cls(**kwargs)


# ----------------------------------------------------------------------
# the plan: a pure, fingerprintable description
# ----------------------------------------------------------------------


class InternetPlan:
    """A fully-determined internet description (no simulator objects).

    Produced by :meth:`InternetGenerator.plan`; consumed by
    :meth:`InternetGenerator.build` and by the adoption-sweep workload
    (which walks AS-level overlay paths without materializing nodes).
    """

    def __init__(
        self,
        spec: NetworkSpec,
        ases: Sequence[AutonomousSystem],
        edges: Sequence[Tuple[int, int, str]],
        ixps: Sequence[InternetExchange],
        tunnels: Sequence[TunnelPlan],
        adoption_order: Sequence[int],
    ) -> None:
        self.spec = spec
        self.ases: Tuple[AutonomousSystem, ...] = tuple(ases)
        self.edges: Tuple[Tuple[int, int, str], ...] = tuple(edges)
        self.ixps: Tuple[InternetExchange, ...] = tuple(ixps)
        self.tunnels: Tuple[TunnelPlan, ...] = tuple(tunnels)
        self.adoption_order: Tuple[int, ...] = tuple(adoption_order)
        self.by_asn: Dict[int, AutonomousSystem] = {a.asn: a for a in self.ases}
        self._graph: Optional[nx.Graph] = None
        self._overlay: Optional[nx.Graph] = None

    # -- structure ------------------------------------------------------
    @property
    def dip_asns(self) -> List[int]:
        return [a.asn for a in self.ases if a.dip]

    @property
    def legacy_asns(self) -> List[int]:
        return [a.asn for a in self.ases if not a.dip]

    @property
    def stub_asns(self) -> List[int]:
        return [a.asn for a in self.ases if a.role == ROLE_STUB]

    @property
    def graph(self) -> nx.Graph:
        """The physical AS-level adjacency graph."""
        if self._graph is None:
            graph = nx.Graph()
            graph.add_nodes_from(a.asn for a in self.ases)
            for a, b, kind in self.edges:
                graph.add_edge(a, b, kind=kind)
            self._graph = graph
        return self._graph

    @property
    def overlay(self) -> nx.Graph:
        """The DIP reachability overlay.

        Nodes are DIP ASes; edges are direct DIP-DIP adjacencies
        (weight 1) or planned tunnels (weight ``1 + len(via)``, i.e.
        the legacy hops they hide).  Direct adjacency wins when a
        tunnel shadows it.
        """
        if self._overlay is None:
            dip = set(self.dip_asns)
            overlay = nx.Graph()
            overlay.add_nodes_from(sorted(dip))
            for a, b, kind in self.edges:
                if a in dip and b in dip:
                    overlay.add_edge(a, b, weight=1, kind="direct")
            for tunnel in self.tunnels:
                if overlay.has_edge(tunnel.spoke, tunnel.hub):
                    continue
                overlay.add_edge(
                    tunnel.spoke,
                    tunnel.hub,
                    weight=1 + len(tunnel.via),
                    kind="tunnel",
                    via=tunnel.via,
                )
            self._overlay = overlay
        return self._overlay

    def overlay_path(self, src_asn: int, dst_asn: int) -> Optional[List[int]]:
        """Shortest DIP-overlay AS path, or None when unreachable."""
        overlay = self.overlay
        if src_asn not in overlay or dst_asn not in overlay:
            return None
        try:
            return nx.dijkstra_path(overlay, src_asn, dst_asn)
        except nx.NetworkXNoPath:
            return None

    def path_hop_breakdown(self, path: Sequence[int]) -> Tuple[int, int]:
        """``(dip_hops, legacy_hops)`` for an overlay path.

        Every AS on the path is one DIP hop; tunnel edges add the
        legacy hops they traverse underneath.
        """
        dip_hops = len(path)
        legacy_hops = 0
        for a, b in zip(path, path[1:]):
            data = self.overlay.edges[a, b]
            if data["kind"] == "tunnel":
                legacy_hops += len(data["via"])
        return dip_hops, legacy_hops

    # -- identity -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "spec": self.spec.to_dict(),
            "ases": [
                {
                    "asn": a.asn,
                    "role": a.role,
                    "dip": a.dip,
                    "profile": a.profile,
                    "hosts": a.hosts,
                }
                for a in self.ases
            ],
            "edges": [list(edge) for edge in self.edges],
            "ixps": [
                {"ix_id": ix.ix_id, "members": list(ix.members)}
                for ix in self.ixps
            ],
            "tunnels": [
                {"spoke": t.spoke, "hub": t.hub, "via": list(t.via)}
                for t in self.tunnels
            ],
            "adoption_order": list(self.adoption_order),
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical JSON encoding of the plan."""
        canon = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canon.encode()).hexdigest()

    def summary(self) -> Dict[str, object]:
        """Counts for tables and ``--json`` twins."""
        kinds: Dict[str, int] = {}
        for _, _, kind in self.edges:
            kinds[kind] = kinds.get(kind, 0) + 1
        return {
            "seed": self.spec.seed,
            "ases": len(self.ases),
            "transit": self.spec.transit,
            "regional": self.spec.regional,
            "stub": self.spec.stub,
            "dip_ases": len(self.dip_asns),
            "legacy_ases": len(self.legacy_asns),
            "adoption": round(self.spec.adoption, 4),
            "edges": len(self.edges),
            "edge_kinds": kinds,
            "ixps": len(self.ixps),
            "tunnels": len(self.tunnels),
            "hosts": sum(a.hosts for a in self.ases),
            "fingerprint": self.fingerprint(),
        }

    def describe_rows(self) -> List[Dict[str, object]]:
        """Per-AS detail rows for ``repro topology --describe``."""
        graph = self.graph
        return [
            {
                "asn": a.asn,
                "as_id": a.as_id,
                "role": a.role,
                "mode": "dip" if a.dip else "legacy",
                "profile": a.profile if a.dip else "-",
                "degree": graph.degree[a.asn],
                "hosts": a.hosts,
                "prefix": f"{a.asn << 16:#010x}/16",
            }
            for a in self.ases
        ]


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------


class InternetGenerator:
    """Render a :class:`NetworkSpec` into a plan or a live topology."""

    def __init__(self, spec: NetworkSpec) -> None:
        self.spec = spec

    # -- pure description ----------------------------------------------
    def plan(self) -> InternetPlan:
        spec = self.spec
        rng = random.Random(f"dip-internet-{spec.seed}")

        transits = list(range(1, spec.transit + 1))
        regionals = list(
            range(spec.transit + 1, spec.transit + spec.regional + 1)
        )
        stubs = list(
            range(
                spec.transit + spec.regional + 1,
                spec.total_ases + 1,
            )
        )
        all_asns = transits + regionals + stubs

        edges: Dict[Tuple[int, int], str] = {}

        def add_edge(a: int, b: int, kind: str) -> None:
            if a == b:
                return
            edges.setdefault((min(a, b), max(a, b)), kind)

        # Tier-1 core: full mesh between transit ASes.
        for i, a in enumerate(transits):
            for b in transits[i + 1:]:
                add_edge(a, b, "core")

        # Regionals buy transit from one or two tier-1s.
        for asn in regionals:
            count = 2 if len(transits) >= 2 and rng.random() < 0.4 else 1
            for provider in rng.sample(transits, count):
                add_edge(asn, provider, "provider")

        # Stubs multihome to regional providers (occasionally tier-1).
        provider_pool = regionals if regionals else transits
        for asn in stubs:
            count = min(spec.multihome, len(provider_pool))
            for provider in rng.sample(provider_pool, count):
                add_edge(asn, provider, "provider")
            if regionals and rng.random() < 0.15:
                add_edge(asn, rng.choice(transits), "provider")

        # IXPs: sampled members peer pairwise with some probability.
        ixps: List[InternetExchange] = []
        ix_candidates = regionals + stubs
        for ix_id in range(1, spec.ix_count + 1):
            if not ix_candidates:
                break
            size = min(len(ix_candidates), max(2, rng.randint(5, 12)))
            members = tuple(sorted(rng.sample(ix_candidates, size)))
            ixps.append(InternetExchange(ix_id=ix_id, members=members))
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if rng.random() < 0.3:
                        add_edge(a, b, "ix")

        # Staged adoption: the order is drawn from its own stream so the
        # graph above is identical at every adoption fraction, and the
        # DIP set at fraction f is a prefix — f' > f only *adds* ASes.
        adoption_order = list(all_asns)
        random.Random(f"dip-adoption-{spec.seed}").shuffle(adoption_order)
        dip_count = int(round(spec.adoption * len(all_asns)))
        dip = set(adoption_order[:dip_count])

        # Capability profiles likewise come from their own stream and
        # are assigned to every AS (used only once it adopts DIP).
        profile_rng = random.Random(f"dip-profiles-{spec.seed}")
        names = [name for name, _ in spec.profile_mix]
        weights = [weight for _, weight in spec.profile_mix]
        profiles = {
            asn: profile_rng.choices(names, weights=weights)[0]
            for asn in all_asns
        }

        ases = [
            AutonomousSystem(
                asn=asn,
                role=(
                    ROLE_TRANSIT if asn in set(transits)
                    else ROLE_REGIONAL if asn in set(regionals)
                    else ROLE_STUB
                ),
                dip=asn in dip,
                profile=profiles[asn],
                hosts=spec.hosts_per_stub if asn in set(stubs) else 0,
            )
            for asn in all_asns
        ]

        sorted_edges = sorted(
            (a, b, kind) for (a, b), kind in edges.items()
        )
        tunnels = self._plan_tunnels(all_asns, sorted_edges, dip)
        return InternetPlan(
            spec=spec,
            ases=ases,
            edges=sorted_edges,
            ixps=ixps,
            tunnels=tunnels,
            adoption_order=adoption_order,
        )

    @staticmethod
    def _plan_tunnels(
        asns: Sequence[int],
        edges: Sequence[Tuple[int, int, str]],
        dip: set,
    ) -> List[TunnelPlan]:
        """Hub-and-spoke tunnels across each legacy component.

        For every maximal connected component of legacy ASes, the
        lowest-numbered adjacent DIP AS becomes the hub; every other
        adjacent DIP AS gets one tunnel to it.  The legacy path each
        tunnel rides is read off a BFS tree rooted at the hub's entry
        point, so /32 underlay routes installed for different tunnels
        never conflict at shared legacy routers.
        """
        graph = nx.Graph()
        graph.add_nodes_from(asns)
        for a, b, _ in edges:
            graph.add_edge(a, b)
        legacy = set(asns) - dip
        tunnels: List[TunnelPlan] = []
        components = sorted(
            nx.connected_components(graph.subgraph(legacy)), key=min
        )
        for component in components:
            component = set(component)
            borders = sorted({
                neighbor
                for asn in component
                for neighbor in graph.neighbors(asn)
                if neighbor in dip
            })
            if len(borders) < 2:
                continue  # dead-end legacy pocket: nothing to bridge
            hub = borders[0]
            hub_entry = min(
                n for n in graph.neighbors(hub) if n in component
            )
            bfs = nx.single_source_shortest_path(
                graph.subgraph(component), hub_entry
            )
            for spoke in borders[1:]:
                spoke_entry = min(
                    n for n in graph.neighbors(spoke) if n in component
                )
                via = tuple(reversed(bfs[spoke_entry]))
                tunnels.append(TunnelPlan(spoke=spoke, hub=hub, via=via))
        return tunnels

    # -- materialization ------------------------------------------------
    def build(self) -> "Internet":
        return Internet(self.plan())


class Internet:
    """A materialized plan: topology, nodes, routes, tunnels, caps.

    Attributes
    ----------
    topology:
        The live :class:`Topology` (shared engine, ready to run).
    routers:
        ``asn -> Node`` — :class:`BorderRouterNode` for DIP ASes (with
        the AS's restricted registry), :class:`LegacyRouterNode` else.
    hosts:
        ``asn -> [HostNode, ...]`` for stub ASes.
    capabilities:
        AS-keyed :class:`CapabilityMap` with router/host membership.
    """

    def __init__(self, plan: InternetPlan) -> None:
        self.plan = plan
        self.topology = Topology()
        self.capabilities = CapabilityMap()
        self.routers: Dict[int, Node] = {}
        self.hosts: Dict[int, List[HostNode]] = {}
        # asn pair -> egress port of the first asn's router on that link
        self._ports: Dict[Tuple[int, int], int] = {}
        # (asn, peer_asn) -> dedicated tunnel egress port on asn's router
        self._tunnel_egress: Dict[Tuple[int, int], int] = {}
        self._host_ports: Dict[str, int] = {}  # host id -> router port
        self._build_nodes()
        self._build_links()
        self._build_tunnels()
        self._install_routes()
        self.topology.wire_neighbor_labels()

    # -- construction ---------------------------------------------------
    def _build_nodes(self) -> None:
        topo = self.topology
        for autonomous in self.plan.ases:
            if autonomous.dip:
                router: Node = BorderRouterNode(
                    autonomous.router_id,
                    topo.engine,
                    trace=topo.trace,
                    registry=profile_registry(autonomous.profile),
                )
                self.capabilities.advertise_router(
                    router, as_id=autonomous.as_id
                )
            else:
                router = LegacyRouterNode(
                    autonomous.router_id, topo.engine, trace=topo.trace
                )
                self.capabilities.add_member(
                    router.node_id, autonomous.as_id
                )
            topo.add(router)
            self.routers[autonomous.asn] = router
            members: List[HostNode] = []
            for index in range(autonomous.hosts):
                host = HostNode(
                    autonomous.host_id(index), topo.engine, trace=topo.trace
                )
                link = topo.connect(router, host)
                self._host_ports[host.node_id] = link.port_of(router.node_id)
                self.capabilities.add_member(
                    host.node_id, autonomous.as_id
                )
                members.append(host)
            if members:
                self.hosts[autonomous.asn] = members

    def _build_links(self) -> None:
        for a, b, _kind in self.plan.edges:
            router_a, router_b = self.routers[a], self.routers[b]
            link = self.topology.connect(router_a, router_b)
            self._ports[(a, b)] = link.port_of(router_a.node_id)
            self._ports[(b, a)] = link.port_of(router_b.node_id)

    def _build_tunnels(self) -> None:
        """Materialize planned tunnels (Section 2.4 interop).

        ``BorderRouterNode`` tunnels are keyed by egress port with a
        single remote, so each tunnel gets a *dedicated* parallel link
        from both border routers into their legacy entry ASes — exactly
        what auto-allocated ports make cheap.  Legacy routers along
        ``via`` get /32 underlay routes for both endpoint addresses.
        """
        for tunnel in self.plan.tunnels:
            spoke = self.routers[tunnel.spoke]
            hub = self.routers[tunnel.hub]
            assert isinstance(spoke, BorderRouterNode)
            assert isinstance(hub, BorderRouterNode)
            spoke_addr = tunnel_endpoint_v4(tunnel.spoke)
            hub_addr = tunnel_endpoint_v4(tunnel.hub)
            via = tunnel.via
            entry_spoke = self.routers[via[0]]
            entry_hub = self.routers[via[-1]]
            link_spoke = self.topology.connect(spoke, entry_spoke)
            link_hub = self.topology.connect(hub, entry_hub)
            spoke_port = link_spoke.port_of(spoke.node_id)
            hub_port = link_hub.port_of(hub.node_id)
            spoke.add_tunnel(spoke_port, spoke_addr, hub_addr)
            hub.add_tunnel(hub_port, hub_addr, spoke_addr)
            self._tunnel_egress[(tunnel.spoke, tunnel.hub)] = spoke_port
            self._tunnel_egress[(tunnel.hub, tunnel.spoke)] = hub_port
            for i, legacy_asn in enumerate(via):
                legacy = self.routers[legacy_asn]
                assert isinstance(legacy, LegacyRouterNode)
                if i + 1 < len(via):
                    toward_hub = self._ports[(legacy_asn, via[i + 1])]
                else:
                    toward_hub = link_hub.port_of(legacy.node_id)
                if i == 0:
                    toward_spoke = link_spoke.port_of(legacy.node_id)
                else:
                    toward_spoke = self._ports[(legacy_asn, via[i - 1])]
                legacy.router.add_route_v4(hub_addr, 32, toward_hub)
                legacy.router.add_route_v4(spoke_addr, 32, toward_spoke)

    def _install_routes(self) -> None:
        """Static AS-level routing over the DIP overlay.

        Every DIP router gets a /16 route per reachable DIP AS, its
        egress chosen by shortest overlay path (tunnels weighted by the
        legacy hops they hide), plus /32 routes for its own hosts.
        """
        overlay = self.plan.overlay
        for src in sorted(overlay.nodes):
            router = self.routers[src]
            paths = nx.single_source_dijkstra_path(overlay, src)
            for dst in sorted(overlay.nodes):
                if dst == src or dst not in paths:
                    continue
                next_hop = paths[dst][1]
                edge = overlay.edges[src, next_hop]
                if edge["kind"] == "tunnel":
                    port = self._tunnel_egress[(src, next_hop)]
                else:
                    port = self._ports[(src, next_hop)]
                prefix, prefix_len = as_prefix(dst)
                router.state.fib_v4.insert(prefix, prefix_len, port)
        for asn, members in self.hosts.items():
            router = self.routers[asn]
            autonomous = self.plan.by_asn[asn]
            if not autonomous.dip:
                continue
            for index, host in enumerate(members):
                router.state.fib_v4.insert(
                    autonomous.host_address(index),
                    32,
                    self._host_ports[host.node_id],
                )

    # -- operation ------------------------------------------------------
    def router(self, asn: int) -> Node:
        return self.routers[asn]

    def as_path(self, src_asn: int, dst_asn: int) -> Optional[List[int]]:
        """AS-level DIP overlay path (ids usable with CapabilityMap)."""
        return self.plan.overlay_path(src_asn, dst_asn)

    def bootstrap_hosts(self) -> int:
        """Run the Section 2.3 discovery exchange for every DIP host.

        Returns the number of hosts that completed bootstrap (hosts in
        legacy ASes get no reply — their access router is DIP-agnostic).
        """
        requested = []
        for asn in sorted(self.hosts):
            for host in self.hosts[asn]:
                bootstrap_host_async(host, port=0)
                requested.append((asn, host))
        self.topology.run()
        return sum(
            1
            for asn, host in requested
            if host.stack.available_fns is not None
            and self.plan.by_asn[asn].dip
        )

    def summary(self) -> Dict[str, object]:
        """Plan summary extended with materialization counts."""
        data = self.plan.summary()
        data.update(
            nodes=len(self.topology.nodes()),
            links=self.topology.graph.number_of_edges(),
            tunnels_placed=len(self._tunnel_egress) // 2,
        )
        return data


__all__ = [
    "AutonomousSystem",
    "DEFAULT_PROFILE_MIX",
    "Internet",
    "InternetExchange",
    "InternetGenerator",
    "InternetPlan",
    "NetworkSpec",
    "PROFILES",
    "ProfileRegistryFactory",
    "TunnelPlan",
    "as_prefix",
    "profile_registry",
    "tunnel_endpoint_v4",
]
