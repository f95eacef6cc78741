"""Engine throughput workload: DIP-32 forwarding at batch scale.

- :func:`dip32_state_factory` -- a *module-level* (picklable) factory
  rebuilding the DIP-32 benchmark node state, so the engine's
  multiprocessing shards, the serving daemon and the CLI can construct
  identical private FIBs from a seed instead of receiving live objects
  over a pipe;
- :func:`make_engine_packets` / :func:`make_zipf_engine_packets` --
  the encoded uniform and Zipf-skewed packet batches matching it;
- :func:`measure_throughput` -- the per-packet / batch / engine ladder
  ``examples/engine_throughput.py`` prints.

Importing this module must not load numpy: the serving daemon imports
the state factory, and only the columnar kernel needs numpy.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.core.flowcache import FlowDecisionCache
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.core.state import NodeState
from repro.engine import EngineConfig, ForwardingEngine
from repro.workloads.generators import (
    make_dip_ipv4_workload,
    make_dip_ipv4_zipf_workload,
    populate_dip_ipv4_routes,
)
from repro.workloads.sweeps import time_callable


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


def measure_throughput(
    packets: List[bytes],
    mode: str = "per-packet",
    num_shards: int = 4,
    repeats: int = 3,
    flow_cache: bool = False,
) -> Dict[str, object]:
    """pkts/s of one processing mode over a prepared packet batch.

    Modes: ``per-packet`` (the reference wire decode plus
    :meth:`RouterProcessor.process` per packet: the same walk as the
    batch path, with full trace notes and no raw-bytes prelude),
    ``batch`` (:meth:`RouterProcessor.process_batch`), ``engine`` (the
    full dispatch/ring/shard path on ``num_shards`` serial shards).
    ``flow_cache`` puts the flow-level decision cache in front of the
    ``batch`` and ``engine`` modes (``process`` never uses it).  The
    engine is started before the timed runs and closed after, so the
    numbers describe the serving steady state, not start-up cost.
    Best-of-``repeats`` after one warm-up run; a quick in-process
    illustration, not a benchmark (``bench/run.py`` is the one
    harness).
    """
    cleanup = None
    if mode == "per-packet":
        processor = RouterProcessor(dip32_state_factory())

        def work() -> None:
            for raw in packets:
                processor.process(DipPacket.decode(raw))

    elif mode == "batch":
        processor = RouterProcessor(
            dip32_state_factory(),
            flow_cache=FlowDecisionCache() if flow_cache else None,
        )

        def work() -> None:
            processor.process_batch(packets)

    elif mode == "engine":
        engine = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(num_shards=num_shards, flow_cache=flow_cache),
        )
        engine.start()
        cleanup = engine.close

        def work() -> None:
            engine.run(packets)

    else:
        raise ValueError(f"unknown throughput mode {mode!r}")

    try:
        work()  # warm caches so every mode is measured steady-state
        seconds = time_callable(work, repeats=repeats)
    finally:
        if cleanup is not None:
            cleanup()
    return {
        "mode": mode,
        "pkts_per_second": len(packets) / seconds if seconds > 0 else 0.0,
        "seconds": seconds,
    }
