"""Workload ``engine-fig2``: the persistent process engine, no sockets.

One :class:`~repro.engine.ForwardingEngine` per Section-3 composition
(``backend="process"``, 2 shards, shared-memory IPC, flow cache and
columnar specializer on), each fed its Figure 2 packets at 128 B and
1500 B in bursts of 128.  No serve layer runs here: dispatch, IPC, the
worker walk, MAC crypto and per-byte copies are what is measured, and
the 1500 B half shows the per-byte costs the 128 B half hides.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import os
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.conformance.reference import ReferenceInterpreter
from repro.crypto.mac import mac_bytes
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.shm import leaked_segments
from repro.workloads import generators

from layers import (
    SpanTree,
    core_layer_rows,
    engine_report_rows,
    walk_core_layers,
)
from meter import cpu_seconds, peak_rss_mib, percentile

# composition -> (generator, packets per size per pass).  Counts are
# fixed so that, at the baseline, each composition takes 15-30% of a
# pass and none dominates (OPT's MACs cost ~15x an IP lookup), and so
# that OPT's 24 bursts are 3.3% of a pass's 728: the burst-latency p98
# then sits near the middle of the OPT bursts, not at their tail.
COMPOSITIONS = {
    "ipv4": (generators.make_dip_ipv4_zipf_workload, 16384),
    "ipv6": (generators.make_dip_ipv6_workload, 16384),
    "ndn": (generators.make_ndn_interest_workload, 8192),
    "opt": (generators.make_opt_workload, 1536),
    "xia": (generators.make_xia_workload, 4096),
}
SIZES = (128, 1500)
GENERATED = 1024  # distinct wires per (composition, size), cycled
BURST = 128  # packets per ForwardingEngine.run call
SAMPLE_EVERY = 50  # 1-in-50 outcomes are checked against the reference
# Each burst is stamped later than the NDN PIT lifetime (4 s), so a name
# that comes round again records a fresh PIT entry and takes the FIB
# path, as in the Figure 2 generator.
BURST_CLOCK_STEP = 5.0

Key = Tuple[str, int]


def composition_state(composition: str, seed: int):
    """One shard's node state (module level: workers rebuild it)."""
    maker = COMPOSITIONS[composition][0]
    return maker(packet_size=128, packet_count=1, seed=seed).processor.state


def engine_config(shm: bool = True) -> EngineConfig:
    return EngineConfig(
        num_shards=2, backend="process", shm=shm,
        flow_cache=True, columnar=True,
    )


class Fig2:
    """The engines, their bursts and the reference verdicts."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.bursts: Dict[Key, List[List[bytes]]] = {}
        # (key, burst index) -> [(offset in burst, expected outcome)]
        self.expected: Dict[Tuple[Key, int], list] = {}
        for composition, (maker, _) in COMPOSITIONS.items():
            reference = ReferenceInterpreter(
                composition_state(composition, seed)
            )
            for size in SIZES:
                wires = [
                    packet.encode()
                    for packet in maker(
                        packet_size=size, packet_count=GENERATED, seed=seed
                    ).packets
                ]
                key = (composition, size)
                self.bursts[key] = [
                    wires[start:start + BURST]
                    for start in range(0, GENERATED, BURST)
                ]
                for index in range(0, GENERATED, SAMPLE_EVERY):
                    result = reference.process(wires[index])
                    self.expected.setdefault(
                        (key, index // BURST), []
                    ).append(
                        (
                            index % BURST,
                            (
                                result.decision,
                                result.ports,
                                None if result.packet is None
                                else result.packet.encode(),
                            ),
                        )
                    )
        self.engines = {
            composition: ForwardingEngine(
                functools.partial(composition_state, composition, seed),
                config=engine_config(),
            ).start()
            for composition in COMPOSITIONS
        }
        self.clock = 0.0
        self.unaccounted = 0
        self.wrong = 0
        self.packets = 0
        # Two bursts per row: workers finish building state, programs
        # compile, flow caches and kernels fill.
        for key in self.bursts:
            for index in range(2):
                self.burst(key, index)

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()

    def pids(self) -> List[int]:
        """This process and every engine worker."""
        return [os.getpid()] + [
            child.pid for child in multiprocessing.active_children()
        ]

    def cpu(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids())

    def burst(self, key: Key, index: int):
        """One ``run`` call, conservation and sampled verdicts checked."""
        slot = index % len(self.bursts[key])
        self.clock += BURST_CLOCK_STEP
        report = self.engines[key[0]].run(
            self.bursts[key][slot], now=self.clock
        )
        self.packets += report.packets_offered
        self.unaccounted += abs(report.packets_unaccounted)
        for offset, expected in self.expected.get((key, slot), ()):
            outcome = report.outcomes[offset]
            if outcome is None or outcome[:3] != expected:
                self.wrong += 1
        return report

    def one_pass(self, tree: Optional[SpanTree], lap: int):
        """Every row once; returns (packets, seconds, burst latencies,
        reports)."""
        clock = time.perf_counter
        latencies = []
        reports = []
        packets = 0
        started = clock()
        for key in self.bursts:
            composition, size = key
            for index in range(COMPOSITIONS[composition][1] // BURST):
                before = clock()
                if tree is None:
                    report = self.burst(key, index)
                else:
                    with tree.span(
                        "engine.engine.run", lap, BURST,
                        composition=composition, size=size,
                    ):
                        report = self.burst(key, index)
                    # Only the counters are read later; the packets
                    # would cost ~100 MB per pass.
                    reports.append(dataclasses.replace(report, outcomes=()))
                latencies.append(clock() - before)
                packets += BURST
        return packets, clock() - started, latencies, reports


def trace_rows(
    fig2: Fig2, tree: SpanTree, seconds: float
) -> Dict[str, float]:
    """The traced run: spans around every ``run`` call, then the layers
    below the engine on the 128 B wires of all five compositions."""
    reports = []
    lap = 0
    deadline = time.perf_counter() + 0.5 * seconds
    while lap == 0 or time.perf_counter() < deadline:
        reports.extend(fig2.one_pass(tree, lap)[3])
        lap += 1
    rows = {
        "engine.engine.run_us_per_pkt": tree.us_per_packet(
            "engine.engine.run"
        ),
    }
    for composition, size in fig2.bursts:
        rows[f"engine.engine.us_per_pkt.{composition}-{size}"] = (
            tree.us_per_packet(
                "engine.engine.run", composition=composition, size=size
            )
        )
    rows.update(engine_report_rows(reports, parallel=True))

    # Shared-memory slots against pickled pipe batches, where the bytes
    # are: the 1500 B IPv4 row, alternating engines burst by burst.
    laps = max(1, round(seconds / 4))
    bursts = fig2.bursts[("ipv4", 1500)]
    piped = ForwardingEngine(
        functools.partial(composition_state, "ipv4", fig2.seed),
        config=engine_config(shm=False),
    ).start()
    try:
        for burst in bursts:  # the piped engine's workers build state
            piped.run(burst)
        for lap in range(laps):
            for burst in bursts * 4:
                with tree.span("engine.shm.run", lap, BURST, shm=True):
                    fig2.engines["ipv4"].run(burst)
                with tree.span("engine.shm.run", lap, BURST, shm=False):
                    piped.run(burst)
    finally:
        piped.close()
    rows["engine.shm.pipe_ratio"] = tree.us_per_packet(
        "engine.shm.run", shm=True
    ) / tree.us_per_packet("engine.shm.run", shm=False)

    stats = []
    step = itertools.count(1)
    for composition in COMPOSITIONS:
        wires = [
            wire
            for burst in fig2.bursts[(composition, 128)][:2]
            for wire in burst
        ]
        stats.append(
            walk_core_layers(
                tree,
                wires,
                functools.partial(composition_state, composition, fig2.seed),
                2,
                laps,
                now=lambda: next(step) * BURST_CLOCK_STEP,
            )
        )
    rows.update(core_layer_rows(tree, stats))

    # F_MAC's input: the 52-byte pre-OPV region plus a 16-byte label
    # digest, under a 16-byte dynamic key.
    key = fig2.seed.to_bytes(16, "big")
    message = bytes(range(68))
    for lap in range(laps):
        with tree.span("crypto.mac.mac_bytes", lap, 512):
            for _ in range(512):
                mac_bytes(key, message)
    rows["crypto.mac.us_per_tag"] = tree.us_per_packet("crypto.mac.mac_bytes")
    return rows


def run(
    seed: int, seconds: float, setups: int, tree: Optional[SpanTree]
) -> Dict[str, object]:
    setup_times = []
    fig2 = None
    for _ in range(setups):
        if fig2 is not None:
            fig2.close()
        started = time.perf_counter()
        fig2 = Fig2(seed)
        setup_times.append(time.perf_counter() - started)
    try:
        if tree is not None:
            metrics = trace_rows(fig2, tree, seconds)
        else:
            rates, cpus, p98s = [], [], []
            deadline = time.perf_counter() + seconds
            while not rates or time.perf_counter() < deadline:
                cpu_before = fig2.cpu()
                packets, elapsed, latencies, _ = fig2.one_pass(None, 0)
                cpus.append((fig2.cpu() - cpu_before) / packets * 1e6)
                rates.append(packets / elapsed)
                p98s.append(percentile(latencies, 0.98) * 1e3)
            metrics = {
                "setup_s": median(setup_times),
                "pkts_per_s": median(rates),
                "cpu_us_per_pkt": median(cpus),
                    "lat_p98_ms": median(p98s),
                "peak_rss_mb": sum(
                    peak_rss_mib(pid) for pid in fig2.pids()
                ),
            }
    finally:
        fig2.close()
    return {
        "attempted": fig2.packets,
        "checks": {
            "unaccounted": fig2.unaccounted,
            "differs_from_reference": fig2.wrong,
            "leaked_shm_segments": len(leaked_segments()),
        },
        "metrics": metrics,
    }
