#!/usr/bin/env python
"""The batched, sharded forwarding engine (DESIGN.md §3.6).

Walks the three rungs of the software fast path over one DIP-32
workload:

1. ``RouterProcessor.process`` per packet (reference wire decode, one
   walk with full trace notes per call);
2. ``RouterProcessor.process_batch`` -- same walk, the wire prelude
   and per-packet bookkeeping amortized across the batch;
3. ``ForwardingEngine`` -- RSS-style flow hashing into bounded rings
   feeding sharded processors, each with private state.

With ``--flow-cache`` (the default; disable with ``--no-flow-cache``)
the ladder grows a fourth rung: the flow-level decision cache
(DESIGN.md §3.7) in front of the batch walk, shown with its
hit/miss/bypass counters on a Zipf-skewed workload.

Then shows what the engine adds beyond speed: flow-stable shard
steering (an NDN interest and its data meet the same PIT) and explicit
backpressure (block vs drop-tail).
"""

import argparse

from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.engine import EngineConfig, ForwardingEngine, flow_key
from repro.realize.ndn import build_data_packet, build_interest_packet
from repro.workloads.throughput import (
    dip32_state_factory,
    make_engine_packets,
    make_zipf_engine_packets,
    measure_throughput,
)


def throughput_ladder(packets, flow_cache: bool) -> None:
    print("== throughput ladder (DIP-32, %d packets) ==" % len(packets))
    base = measure_throughput(packets, mode="per-packet", repeats=3)
    ladder = [
        base,
        measure_throughput(packets, mode="batch", repeats=3),
        measure_throughput(packets, mode="engine", num_shards=4, repeats=3),
    ]
    if flow_cache:
        cached = measure_throughput(
            packets, mode="batch", repeats=3, flow_cache=True
        )
        cached["mode"] = "batch+fc"
        ladder.insert(2, cached)
    for result in ladder:
        speedup = result["pkts_per_second"] / base["pkts_per_second"]
        print(
            f"  {result['mode']:<10} {result['pkts_per_second']:>10,.0f}"
            f" pkts/s  ({speedup:.2f}x)"
        )


def flow_cache_counters() -> None:
    print("\n== flow decision cache (Zipf s=1.1, 256 flows) ==")
    packets = make_zipf_engine_packets(packet_count=1000)
    engine = ForwardingEngine(
        dip32_state_factory,
        config=EngineConfig(num_shards=4, flow_cache=True),
    )
    for label in ("cold", "warm"):
        stats = engine.run(packets).flow_cache
        print(
            f"  {label}: {stats.hits} hits, {stats.misses} misses,"
            f" {stats.bypasses} bypasses, {stats.evictions} evictions,"
            f" {stats.size}/{stats.capacity} entries"
        )
    print(
        "  -> same decisions either way (tests/engine/"
        "test_flowcache_equivalence.py); warm runs skip the FN walk"
    )


def flow_steering() -> None:
    print("\n== flow steering ==")
    interest = build_interest_packet("/seu/hotnets").encode()
    data = build_data_packet("/seu/hotnets", b"paper").encode()
    other = build_interest_packet("/unrelated").encode()
    print(f"  interest('/seu/hotnets') key {flow_key(interest).hex()}")
    print(f"  data('/seu/hotnets')     key {flow_key(data).hex()}")
    print(f"  interest('/unrelated')   key {flow_key(other).hex()}")
    assert flow_key(interest) == flow_key(data) != flow_key(other)
    print(
        "  -> different programs (F_FIB vs F_PIT), same name, same key:"
        " the data finds the PIT entry its interest left on that shard"
    )


def equivalence(packets) -> None:
    print("\n== engine output == sequential output ==")
    engine = ForwardingEngine(
        dip32_state_factory, config=EngineConfig(num_shards=4)
    )
    report = engine.run(packets)
    reference = RouterProcessor(dip32_state_factory())
    for raw, outcome in zip(packets, report.outcomes):
        expected = reference.process(DipPacket.decode(raw))
        assert outcome.decision == expected.decision
        assert outcome.ports == expected.ports
    print(
        f"  {report.packets_processed} packets, decisions"
        f" {dict(sorted(report.decisions.items()))},"
        f" identical to the reference walk"
    )
    for shard in report.shards:
        print(
            f"  shard {shard.shard_id}: {shard.packets} pkts"
            f" in {shard.batches} batches,"
            f" {shard.utilization * 100:.0f}% busy"
        )


def backpressure(packets) -> None:
    print("\n== backpressure ==")
    # A ring smaller than the batch models a consumer that only wakes
    # for full batches it can never get: the burst overflows.
    squeeze = dict(num_shards=1, batch_size=64, ring_capacity=16)
    drop = ForwardingEngine(
        dip32_state_factory,
        config=EngineConfig(backpressure="drop-tail", **squeeze),
    ).run(packets)
    block = ForwardingEngine(
        dip32_state_factory,
        config=EngineConfig(backpressure="block", **squeeze),
    ).run(packets)
    print(
        f"  drop-tail: {drop.packets_processed} processed,"
        f" {drop.packets_dropped_backpressure} dropped"
        f" (ring high-watermark {drop.rings[0].high_watermark})"
    )
    print(
        f"  block:     {block.packets_processed} processed,"
        f" {block.packets_dropped_backpressure} dropped"
        " (dispatcher stalls instead)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--flow-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="include the flow decision cache rung and its counters",
    )
    args = parser.parse_args()
    packets = make_engine_packets(packet_count=1000)
    throughput_ladder(packets, flow_cache=args.flow_cache)
    flow_steering()
    equivalence(packets)
    backpressure(packets[:200])
    if args.flow_cache:
        flow_cache_counters()


if __name__ == "__main__":
    main()
