"""Adoption-sweep workload: delivery and header cost vs DIP deployment.

Drives the Section 2.4 incremental-deployment story at scale: one
seeded internet (:mod:`repro.netsim.internet`), swept across adoption
fractions.  Because the generator's adoption order is *staged* (the DIP
set at a higher fraction is a superset of the set at a lower one), the
sweep reads as one internet deploying DIP AS by AS — the graph, the
flows and the capability profiles never change, only who has adopted.

Packets really flow: every AS hop of every deliverable flow is executed
by a :class:`~repro.engine.ForwardingEngine` whose registry comes from
that AS's capability profile (``registry_factory``, the PR-4
heterogeneous-node plumbing), one shared engine per profile with a flow
cache in front.  Delivery is decided by DIP overlay reachability
(legacy endpoints and partitioned DIP islands fail); header cost counts
the DIP-32 basic header per AS hop plus the outer IPv4 header for every
legacy hop a tunnel hides.

The sweep runs at one fixed scale (:data:`SPEC` x :data:`FRACTIONS`,
1,111,200 packets forwarded) and its result is free of wall-clock
data: ``repro paper ADOPT`` renders it as ``results/ADOPT.txt``, which
regenerates byte-identically.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.core.state import NodeState
from repro.engine import EngineConfig, ForwardingEngine
from repro.netsim.internet import (
    InternetGenerator,
    NetworkSpec,
    ProfileRegistryFactory,
    PROFILES,
)
from repro.protocols.ip.ipv4 import IPV4_HEADER_SIZE
from repro.realize.ip import build_ipv4_packet

#: The acceptance-scale internet: 208 ASes (4 transit, 24 regional,
#: 180 stub) and 3 IXPs.  ``adoption`` is replaced per sweep fraction.
SPEC = NetworkSpec(
    seed=0, transit=4, regional=24, stub=180, ix_count=3, adoption=0.5
)

#: 5% -> 80%, the incremental-deployment range.
FRACTIONS: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.65, 0.8)

#: Seeded stub-to-stub flows, fixed across all fractions.
FLOWS = 192
PACKETS_PER_FLOW = 800
#: Source-address variants per flow, so the flow cache sees reuse.
SRC_VARIANTS = 8

#: DIP-32 basic header + two FN definitions + two 32-bit locations.
DIP32_HEADER_BYTES = len(build_ipv4_packet(1, 2).header.encode())

#: A tunneled legacy hop carries the DIP header plus the outer IPv4.
TUNNEL_HOP_HEADER_BYTES = DIP32_HEADER_BYTES + IPV4_HEADER_SIZE


def adoption_state_factory() -> NodeState:
    """Per-shard transit-hop state: a default route forwards everything.

    Module-level (picklable) so the sweep can also run on the process
    backend.  Survival at each hop is then decided by the AS's FN
    capability set, not by FIB contents — the sweep models AS-level
    reachability, which the overlay path already resolved.
    """
    state = NodeState(node_id="adoption-sweep")
    state.fib_v4.insert(0, 0, 0)
    return state


def _profile_engines() -> Dict[str, ForwardingEngine]:
    """One serial engine per capability profile, flow cache in front."""
    config = EngineConfig(
        num_shards=1,
        backend="serial",
        batch_size=256,
        flow_cache=True,
        shm=False,
    )
    return {
        profile: ForwardingEngine(
            adoption_state_factory,
            config=config,
            registry_factory=ProfileRegistryFactory(profile),
        )
        for profile in sorted(PROFILES)
    }


def _sample_flows(
    spec: NetworkSpec, count: int
) -> List[Tuple[int, int]]:
    """Seeded (src_stub, dst_stub) pairs, fixed across all fractions."""
    stubs = InternetGenerator(spec).plan().stub_asns
    if len(stubs) < 2:
        return []
    rng = random.Random(f"dip-sweep-{spec.seed}")
    flows = []
    for _ in range(count):
        src, dst = rng.sample(stubs, 2)
        flows.append((src, dst))
    return flows


def _flow_batch(
    src_asn: int, dst_asn: int, packets: int, variants: int
) -> List[bytes]:
    """Encoded DIP-32 packets for one flow.

    A few source-address variants per flow so the flow cache sees
    realistic reuse (hot hits after one miss per variant).
    """
    dst_addr = (dst_asn << 16) | 1
    variants = max(1, min(variants, packets))
    encoded = [
        build_ipv4_packet(dst_addr, (src_asn << 16) | (variant + 1)).encode()
        for variant in range(variants)
    ]
    return [encoded[i % variants] for i in range(packets)]


def run_adoption_sweep() -> Dict[str, object]:
    """Sweep DIP adoption over :data:`SPEC` at :data:`FRACTIONS`.

    Returns a deterministic result (no wall-clock data): the AS count,
    the top fraction's plan fingerprint, and per-fraction delivery
    rate, header cost, tunnel usage and engine-forwarded packet counts.
    ``repro paper ADOPT`` renders and checks it.
    """
    engines = _profile_engines()
    flow_pairs = _sample_flows(SPEC, FLOWS)
    batches = {
        pair: _flow_batch(pair[0], pair[1], PACKETS_PER_FLOW, SRC_VARIANTS)
        for pair in flow_pairs
    }

    def run_flows(plan, collect: Dict[str, float]) -> int:
        """Push every deliverable flow through its AS-path engines.

        Returns packets forwarded; per-point stats accumulate into
        ``collect``.
        """
        forwarded = 0
        for pair in flow_pairs:
            src, dst = pair
            source, sink = plan.by_asn[src], plan.by_asn[dst]
            path = None
            if source.dip and sink.dip:
                path = plan.overlay_path(src, dst)
            collect["flows_total"] += 1
            collect["packets_offered"] += PACKETS_PER_FLOW
            if path is None:
                continue
            dip_hops, legacy_hops = plan.path_hop_breakdown(path)
            surviving = batches[pair]
            for asn in path:
                if not surviving:
                    break
                report = engines[plan.by_asn[asn].profile].run(surviving)
                alive = report.decisions.get("forward", 0)
                forwarded += alive
                if alive < len(surviving):
                    surviving = surviving[:alive]
            collect["flows_deliverable"] += 1
            collect["packets_delivered"] += len(surviving)
            collect["header_bytes"] += PACKETS_PER_FLOW * (
                dip_hops * DIP32_HEADER_BYTES
                + legacy_hops * TUNNEL_HOP_HEADER_BYTES
            )
            collect["packet_hops"] += PACKETS_PER_FLOW * (
                dip_hops + legacy_hops
            )
        return forwarded

    points: List[Dict[str, object]] = []
    for fraction in FRACTIONS:
        plan = InternetGenerator(replace(SPEC, adoption=fraction)).plan()
        stats: Dict[str, float] = {
            key: 0
            for key in (
                "flows_total", "flows_deliverable", "packets_offered",
                "packets_delivered", "header_bytes", "packet_hops",
            )
        }
        forwarded = run_flows(plan, stats)
        offered = int(stats["packets_offered"])
        packet_hops = int(stats["packet_hops"])
        mean_header = (
            stats["header_bytes"] / packet_hops if packet_hops else 0.0
        )
        points.append({
            "fraction": fraction,
            "dip_ases": len(plan.dip_asns),
            "tunnels": len(plan.tunnels),
            "flows_total": int(stats["flows_total"]),
            "flows_deliverable": int(stats["flows_deliverable"]),
            "packets_forwarded": forwarded,
            "delivery_rate": round(
                stats["packets_delivered"] / offered if offered else 0.0, 6
            ),
            "mean_header_bytes_per_hop": round(mean_header, 4),
            "header_overhead_vs_ipv4": round(
                mean_header / IPV4_HEADER_SIZE if packet_hops else 0.0, 4
            ),
        })

    return {
        "ases": plan.summary()["ases"],
        "fingerprint": plan.fingerprint(),
        "points": points,
    }


__all__ = [
    "DIP32_HEADER_BYTES",
    "FRACTIONS",
    "SPEC",
    "TUNNEL_HOP_HEADER_BYTES",
    "adoption_state_factory",
    "run_adoption_sweep",
]
