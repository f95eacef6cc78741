"""Workload generators for the Figure 2 / ablation benchmarks.

Each generator builds (deterministically, from a seed) a router with
realistic state -- populated FIBs, session keys, PIT entries -- and a
batch of packets of the requested total size, then exposes the
``process`` closure the experiments drive.  The Figure 2 settings
are 1000 packets per point at 128 / 768 / 1500 bytes (Section 4.2).

DIP workloads return the per-packet *model cycles* too, so the
deterministic cycle-model variant of Figure 2 can be regenerated
without timing noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.core.state import NodeState
from repro.crypto.keys import RouterKey
from repro.dataplane.costs import CycleCostModel
from repro.errors import SimulationError
from repro.protocols.ip.router import IpRouter
from repro.protocols.ip.ipv4 import IPv4Header, IPV4_HEADER_SIZE
from repro.protocols.ip.ipv6 import IPv6Header, IPV6_HEADER_SIZE
from repro.protocols.opt import negotiate_session
from repro.protocols.xia.dag import DagAddress
from repro.protocols.xia.xid import Xid, XidType
from repro.realize.derived import build_ndn_opt_interest
from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
from repro.realize.ndn import build_interest_packet
from repro.realize.opt import build_opt_packet
from repro.realize.xia import build_xia_packet

DEFAULT_PACKET_COUNT = 1000
FIGURE2_SIZES = (128, 768, 1500)


@dataclass
class ProtocolWorkload:
    """A ready-to-run forwarding workload.

    Parameters
    ----------
    name:
        Row label (matches Figure 2 series names).
    packets:
        Pre-built packets (``DipPacket`` or raw bytes for baselines).
    process:
        Callable processing one packet; benchmarks call it in a loop.
    cycles:
        Per-packet model cycles (DIP workloads only).
    processor:
        The underlying :class:`RouterProcessor` driving ``process``
        (DIP workloads only) -- exposed so tests and benches can reach
        its state or attach a flow cache.
    """

    name: str
    packets: List[object]
    process: Callable[[object], object]
    cycles: List[int] = field(default_factory=list)
    processor: Optional[RouterProcessor] = None

    def run_all(self) -> None:
        """Process every packet once."""
        for packet in self.packets:
            self.process(packet)

    def mean_cycles(self) -> float:
        """Average model cycles per packet."""
        if not self.cycles:
            raise SimulationError(f"workload {self.name} has no cycle data")
        return sum(self.cycles) / len(self.cycles)


def _pad_payload(base_overhead: int, packet_size: int) -> bytes:
    if packet_size < base_overhead:
        raise SimulationError(
            f"packet size {packet_size} smaller than header {base_overhead}"
        )
    return bytes(packet_size - base_overhead)


def _precompute_cycles(
    workload: ProtocolWorkload, cost_model: CycleCostModel
) -> None:
    for packet in workload.packets:
        cycles = cost_model.parse_cycles(
            packet.header.header_length, packet.size
        )
        cycles += sum(
            cost_model.fn_cycles(fn)
            for fn in packet.header.fns
            if not fn.tag
        )
        workload.cycles.append(cycles)


# ----------------------------------------------------------------------
# native IP baselines
# ----------------------------------------------------------------------
def make_native_ipv4_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
) -> ProtocolWorkload:
    """The paper's IPv4 forwarding baseline."""
    rng = random.Random(seed)
    router = IpRouter("baseline-v4")
    prefixes = []
    for _ in range(route_count):
        prefix_len = rng.randint(8, 24)
        prefix = rng.getrandbits(prefix_len) << (32 - prefix_len)
        router.add_route_v4(prefix, prefix_len, rng.randint(0, 15))
        prefixes.append((prefix, prefix_len))
    payload = _pad_payload(IPV4_HEADER_SIZE, packet_size)
    packets = []
    for _ in range(packet_count):
        prefix, prefix_len = rng.choice(prefixes)
        dst = prefix | rng.getrandbits(32 - prefix_len)
        header = IPv4Header(
            src=rng.getrandbits(32),
            dst=dst,
            ttl=64,
            total_length=IPV4_HEADER_SIZE + len(payload),
        )
        packets.append(header.encode() + payload)
    return ProtocolWorkload(
        name="IPv4", packets=packets, process=router.forward_v4
    )


def make_native_ipv6_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
) -> ProtocolWorkload:
    """The paper's IPv6 forwarding baseline."""
    rng = random.Random(seed)
    router = IpRouter("baseline-v6")
    prefixes = []
    for _ in range(route_count):
        prefix_len = rng.randint(16, 64)
        prefix = rng.getrandbits(prefix_len) << (128 - prefix_len)
        router.add_route_v6(prefix, prefix_len, rng.randint(0, 15))
        prefixes.append((prefix, prefix_len))
    payload = _pad_payload(IPV6_HEADER_SIZE, packet_size)
    packets = []
    for _ in range(packet_count):
        prefix, prefix_len = rng.choice(prefixes)
        dst = prefix | rng.getrandbits(128 - prefix_len)
        header = IPv6Header(
            src=rng.getrandbits(128),
            dst=dst,
            payload_length=len(payload),
        )
        packets.append(header.encode() + payload)
    return ProtocolWorkload(
        name="IPv6", packets=packets, process=router.forward_v6
    )


# ----------------------------------------------------------------------
# DIP workloads
# ----------------------------------------------------------------------
def _dip_workload(
    name: str,
    state: NodeState,
    packets: List[DipPacket],
    cost_model: Optional[CycleCostModel],
    advance_time: float = 0.0,
) -> ProtocolWorkload:
    """Wrap a state + packet batch into a workload.

    ``advance_time`` moves the virtual clock forward per packet, so
    stateful entries (PIT) from earlier benchmark rounds expire instead
    of aggregating repeated names into a cheaper code path.
    """
    processor = RouterProcessor(state, cost_model=cost_model)
    clock = {"now": 0.0}

    def process(packet: DipPacket):
        clock["now"] += advance_time
        return processor.process(packet, ingress_port=0, now=clock["now"])

    workload = ProtocolWorkload(
        name=name, packets=packets, process=process, processor=processor
    )
    if cost_model is not None:
        _precompute_cycles(workload, cost_model)
    return workload


def populate_dip_ipv4_routes(
    state: NodeState, rng: random.Random, route_count: int = 1024
) -> List[tuple]:
    """Install the DIP-32 benchmark FIB; returns the (prefix, len) list.

    Routes are drawn from ``rng`` *before* any packet randomness, so a
    fresh ``random.Random(seed)`` rebuilds the exact same FIB the
    workload's packets were generated against -- the engine's
    multiprocessing shards rely on this to reconstruct state from a
    picklable factory (see :mod:`repro.workloads.throughput`).
    """
    prefixes = []
    for _ in range(route_count):
        prefix_len = rng.randint(8, 24)
        prefix = rng.getrandbits(prefix_len) << (32 - prefix_len)
        state.fib_v4.insert(prefix, prefix_len, rng.randint(0, 15))
        prefixes.append((prefix, prefix_len))
    return prefixes


def make_dip_ipv4_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """DIP-32 forwarding (Section 3, IP Forwarding)."""
    rng = random.Random(seed)
    state = NodeState(node_id="dip-v4")
    prefixes = populate_dip_ipv4_routes(state, rng, route_count)
    base = build_ipv4_packet(0, 0).size
    payload = _pad_payload(base, packet_size)
    packets = []
    for _ in range(packet_count):
        prefix, prefix_len = rng.choice(prefixes)
        dst = prefix | rng.getrandbits(32 - prefix_len)
        packets.append(
            build_ipv4_packet(dst, rng.getrandbits(32), payload=payload)
        )
    return _dip_workload("DIP-IPv4", state, packets, cost_model)


def make_dip_ipv4_zipf_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    flow_count: int = 256,
    skew: float = 1.1,
    seed: int = 7,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """DIP-32 forwarding under Zipf-skewed flow popularity.

    Real traffic concentrates on a few heavy flows; packets are drawn
    from ``flow_count`` flows with probability ``1/rank**skew`` (Zipf,
    ``skew`` around 1.1 matches common traces), which is the regime
    microflow caches -- :mod:`repro.core.flowcache` -- are built for.

    A *flow* here is a ``(dst, src)`` pair: both fields are read by the
    packet's router FNs (F_32_match and F_source), so together they are
    exactly what the decision cache keys on.  Route randomness is drawn
    before flow randomness, so :func:`~repro.workloads.throughput.
    dip32_state_factory` (same seed, same ``route_count``) rebuilds the
    matching FIB.
    """
    rng = random.Random(seed)
    state = NodeState(node_id="dip-v4")
    prefixes = populate_dip_ipv4_routes(state, rng, route_count)
    base = build_ipv4_packet(0, 0).size
    payload = _pad_payload(base, packet_size)
    flows = []
    for _ in range(flow_count):
        prefix, prefix_len = rng.choice(prefixes)
        dst = prefix | rng.getrandbits(32 - prefix_len)
        flows.append((dst, rng.getrandbits(32)))
    weights = [1.0 / (rank ** skew) for rank in range(1, flow_count + 1)]
    packets = [
        build_ipv4_packet(dst, src, payload=payload)
        for dst, src in rng.choices(flows, weights=weights, k=packet_count)
    ]
    return _dip_workload("DIP-IPv4/zipf", state, packets, cost_model)


def make_dip_ipv6_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """DIP-128 forwarding (Section 3, IP Forwarding)."""
    rng = random.Random(seed)
    state = NodeState(node_id="dip-v6")
    prefixes = []
    for _ in range(route_count):
        prefix_len = rng.randint(16, 64)
        prefix = rng.getrandbits(prefix_len) << (128 - prefix_len)
        state.fib_v6.insert(prefix, prefix_len, rng.randint(0, 15))
        prefixes.append((prefix, prefix_len))
    base = build_ipv6_packet(0, 0).size
    payload = _pad_payload(base, packet_size)
    packets = []
    for _ in range(packet_count):
        prefix, prefix_len = rng.choice(prefixes)
        dst = prefix | rng.getrandbits(128 - prefix_len)
        packets.append(
            build_ipv6_packet(dst, rng.getrandbits(128), payload=payload)
        )
    return _dip_workload("DIP-IPv6", state, packets, cost_model)


def make_ndn_interest_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """NDN interest forwarding over DIP (F_FIB, 32-bit digests)."""
    rng = random.Random(seed)
    state = NodeState(node_id="dip-ndn")
    digests = []
    for _ in range(max(route_count, packet_count)):
        digest = rng.getrandbits(32)
        state.name_fib_digest.insert(digest, 32, rng.randint(0, 15))
        digests.append(digest)
    base = build_interest_packet(0).size
    payload = _pad_payload(base, packet_size)
    # Distinct names per interest so PIT aggregation does not shortcut
    # the FIB path.
    packets = [
        build_interest_packet(digests[i % len(digests)], payload=payload)
        for i in range(packet_count)
    ]
    # Advance past the PIT lifetime per packet so repeated benchmark
    # rounds re-exercise the full PIT-record + FIB path.
    return _dip_workload(
        "NDN", state, packets, cost_model,
        advance_time=state.pit.default_lifetime + 1.0,
    )


def make_opt_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    seed: int = 7,
    hop_count: int = 1,
    backend: str = "2em",
    parallel: bool = False,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """OPT per-hop processing over DIP (F_parm/F_MAC/F_mark).

    One on-path router (the paper evaluates one hop); the workload
    router *is* hop 0 of the session.
    """
    rng = random.Random(seed)
    state = NodeState(node_id="opt-r0", mac_backend=backend)
    routers = [RouterKey(f"opt-r{i}") for i in range(hop_count)]
    session = negotiate_session(
        "opt-src", "opt-dst", routers, RouterKey("opt-dst"),
        nonce=seed.to_bytes(4, "big"),
    )
    state.opt_positions[session.session_id] = 0
    state.neighbor_labels[0] = "opt-src"
    state.default_port = 1  # single-hop testbed static egress
    probe = build_opt_packet(session, b"", backend=backend)
    payload = _pad_payload(probe.size, packet_size)
    packets = [
        build_opt_packet(
            session,
            payload,
            timestamp=rng.getrandbits(32),
            parallel=parallel,
            backend=backend,
        )
        for _ in range(packet_count)
    ]
    return _dip_workload(
        f"OPT{'(aes)' if backend == 'aes' else ''}", state, packets, cost_model
    )


def make_ndn_opt_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 1024,
    seed: int = 7,
    backend: str = "2em",
    parallel: bool = False,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """The derived NDN+OPT protocol (F_FIB + OPT chain)."""
    rng = random.Random(seed)
    state = NodeState(node_id="no-r0", mac_backend=backend)
    session = negotiate_session(
        "no-src", "no-dst", [RouterKey("no-r0")], RouterKey("no-dst"),
        nonce=seed.to_bytes(4, "big"),
    )
    state.opt_positions[session.session_id] = 0
    state.neighbor_labels[0] = "no-src"
    digests = []
    for _ in range(max(route_count, packet_count)):
        digest = rng.getrandbits(32)
        state.name_fib_digest.insert(digest, 32, rng.randint(0, 15))
        digests.append(digest)
    probe = build_ndn_opt_interest(0, session, b"", backend=backend)
    payload = _pad_payload(probe.size, packet_size)
    packets = [
        build_ndn_opt_interest(
            digests[i % len(digests)],
            session,
            payload,
            timestamp=rng.getrandbits(32),
            parallel=parallel,
            backend=backend,
        )
        for i in range(packet_count)
    ]
    return _dip_workload(
        "NDN+OPT", state, packets, cost_model,
        advance_time=state.pit.default_lifetime + 1.0,
    )


def make_xia_workload(
    packet_size: int = 128,
    packet_count: int = DEFAULT_PACKET_COUNT,
    route_count: int = 256,
    seed: int = 7,
    cost_model: Optional[CycleCostModel] = None,
) -> ProtocolWorkload:
    """XIA DAG forwarding over DIP (F_DAG + F_intent)."""
    rng = random.Random(seed)
    state = NodeState(node_id="dip-xia")
    ads = []
    for i in range(route_count):
        ad = Xid.from_name(XidType.AD, f"ad-{seed}-{i}")
        state.xia_table.add_route(ad, rng.randint(0, 15))
        ads.append(ad)
    probe_dag = DagAddress.with_fallback(
        Xid.for_content(b"probe"), [ads[0], Xid.from_name(XidType.HID, "h")]
    )
    probe = build_xia_packet(probe_dag)
    payload = _pad_payload(probe.size, packet_size)
    packets = []
    for i in range(packet_count):
        cid = Xid.for_content(f"content-{seed}-{i}".encode())
        hid = Xid.from_name(XidType.HID, f"host-{seed}-{i % 32}")
        dag = DagAddress.with_fallback(cid, [rng.choice(ads), hid])
        packets.append(build_xia_packet(dag, payload=payload))
    return _dip_workload("XIA", state, packets, cost_model)
