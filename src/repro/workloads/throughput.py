"""Engine throughput workload: DIP-32 forwarding at batch scale.

- :func:`dip32_state_factory` -- a *module-level* (picklable) factory
  rebuilding the DIP-32 benchmark node state, so the engine's
  multiprocessing shards, the serving daemon and the CLI can construct
  identical private FIBs from a seed instead of receiving live objects
  over a pipe;
- :func:`make_engine_packets` / :func:`make_zipf_engine_packets` --
  the encoded uniform and Zipf-skewed packet batches matching it.

Importing this module must not load numpy: the serving daemon imports
the state factory, and only the columnar kernel needs numpy.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.state import NodeState
from repro.workloads.generators import (
    make_dip_ipv4_workload,
    make_dip_ipv4_zipf_workload,
    populate_dip_ipv4_routes,
)


def dip32_state_factory(
    route_count: int = 1024, seed: int = 7
) -> NodeState:
    """The DIP-32 benchmark node state, rebuilt from its seed.

    Identical to the state :func:`make_dip_ipv4_workload` pairs with
    its packets, because that generator draws all route randomness
    before any packet randomness (see ``populate_dip_ipv4_routes``).
    """
    state = NodeState(node_id="dip-v4")
    populate_dip_ipv4_routes(state, random.Random(seed), route_count)
    return state


def make_engine_packets(
    packet_size: int = 128, packet_count: int = 1000, seed: int = 7
) -> List[bytes]:
    """Encoded DIP-32 packets matching :func:`dip32_state_factory`."""
    workload = make_dip_ipv4_workload(
        packet_size=packet_size, packet_count=packet_count, seed=seed
    )
    return [packet.encode() for packet in workload.packets]


def make_zipf_engine_packets(
    packet_size: int = 128,
    packet_count: int = 1000,
    flow_count: int = 256,
    skew: float = 1.1,
    seed: int = 7,
) -> List[bytes]:
    """Encoded Zipf-skewed DIP-32 packets matching the state factory."""
    workload = make_dip_ipv4_zipf_workload(
        packet_size=packet_size,
        packet_count=packet_count,
        flow_count=flow_count,
        skew=skew,
        seed=seed,
    )
    return [packet.encode() for packet in workload.packets]
