"""Workload ``fabric-golden``: packet-in to delivery across the fabric.

``golden_fabric(GoldenSpec(seed, ases=10, hosts_per_as=2, packets=8000),
processes=2).run()``: eight netsim stub islands, an engine-backed
transit and a PISA-pipeline transit, spread over two spawned workers
behind the star coordinator.  Conservative-sync rounds and message
relaying dominate; the FN walk is a small share.  ``golden_netsim`` on
the same spec is the monolithic twin: its fingerprint is the
correctness check, and its host time is the "useful work" the fabric's
synchronisation overhead is a ratio of.

A run is the only unit of work visible from outside, so the latency
metric here is the wall time of one whole ``run()``.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import resource
import time
from statistics import median
from typing import Dict, Optional, Tuple

from repro.dataplane.dip_pipeline import DipPipeline
from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.shm import leaked_segments
from repro.fabric import (
    GoldenSpec,
    golden_fabric,
    golden_netsim,
    golden_traffic,
)
from repro.fabric.scenario import (
    TRANSIT_ENGINE,
    TRANSIT_PISA,
    transit_state,
)

from layers import (
    SpanTree,
    batches,
    core_layer_rows,
    engine_report_rows,
    walk_core_layers,
)
from meter import ChildRssSampler, peak_rss_mib, percentile

PACKETS = 8000
WALK_PACKETS = 2048  # packets the in-process layer walk is fed


def cpu_now() -> float:
    """CPU seconds of this process and of every worker it has reaped.

    The fabric joins its workers before ``run()`` returns, so the
    kernel's children accounting has their exact total by then.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def fabric_pass(spec: GoldenSpec, twin: Dict[str, object], processes: int):
    """One complete fabric run; returns (report, seconds, packets that
    were not delivered exactly as in the twin)."""
    started = time.perf_counter()
    report = golden_fabric(spec, processes=processes).run()
    seconds = time.perf_counter() - started
    failed = abs(spec.packets - len(report.records))
    if report.fingerprint != twin["fingerprint"]:
        failed = spec.packets
    return report, seconds, failed


def trace_rows(
    spec: GoldenSpec, twin: Dict[str, object], tree: SpanTree, seconds: float
) -> Tuple[Dict[str, float], int, int]:
    """The traced run: (per-layer rows, packets attempted, failed)."""
    laps = max(1, round(seconds / 7))
    failed = 0
    for lap in range(laps):
        with tree.span("fabric.runner.run", lap, spec.packets, processes=2):
            star, _, bad = fabric_pass(spec, twin, 2)
        failed += bad
        with tree.span("fabric.runner.run", lap, spec.packets, processes=1):
            _, _, bad = fabric_pass(spec, twin, 1)
        failed += bad
        with tree.span("netsim.engine.run", lap, spec.packets):
            golden_netsim(spec)
    star_us = tree.us_per_packet("fabric.runner.run", processes=2)
    netsim_us = tree.us_per_packet("netsim.engine.run")
    messages = star.counters["delivers"] + star.counters["advances"]
    rows = {
        "fabric.runner.overhead_ratio": star_us / netsim_us,
        "fabric.runner.proc2_ratio": star_us
        / tree.us_per_packet("fabric.runner.run", processes=1),
        "fabric.runner.rounds_per_kpkt": star.rounds / spec.packets * 1e3,
        "fabric.runner.msgs_per_pkt": messages / spec.packets,
        "fabric.runner.null_msg_ratio": star.counters["advances"] / messages,
        "netsim.engine.events_per_s": twin["counters"]["sim_events"]
        / (netsim_us * 1e-6 * spec.packets),
    }

    # The two transits' own layers, in process, on the scenario's
    # packets (every transit routes every stub prefix).
    sends = golden_traffic(spec)[:WALK_PACKETS]
    packets = [send.packet() for send in sends]
    wires = [packet.encode() for packet in packets]
    pipeline = DipPipeline(transit_state(spec, TRANSIT_PISA))
    # EngineRouterComponent's default engine shape.
    engine = ForwardingEngine(
        functools.partial(transit_state, spec, TRANSIT_ENGINE),
        config=EngineConfig(num_shards=1, backend="serial", batch_size=256),
    )
    reports = []
    for lap in range(laps):
        with tree.span("dataplane.dip_pipeline.process", lap, len(packets)):
            for packet in packets:
                pipeline.process(packet)
        for group in batches(wires):
            with tree.span("engine.engine.run", lap, len(group)):
                reports.append(
                    dataclasses.replace(engine.run(group), outcomes=())
                )
    rows["dataplane.dip_pipeline.us_per_pkt"] = tree.us_per_packet(
        "dataplane.dip_pipeline.process"
    )
    rows["engine.engine.run_us_per_pkt"] = tree.us_per_packet(
        "engine.engine.run"
    )
    rows.update(engine_report_rows(reports, parallel=False))
    stats = walk_core_layers(
        tree,
        wires,
        functools.partial(transit_state, spec, TRANSIT_ENGINE),
        1,
        laps,
        now=lambda: 0.0,
    )
    rows.update(core_layer_rows(tree, [stats]))
    return rows, 2 * laps * spec.packets, failed


def run(
    seed: int, seconds: float, setups: int, tree: Optional[SpanTree]
) -> Dict[str, object]:
    spec = GoldenSpec(seed=seed, ases=10, hosts_per_as=2, packets=PACKETS)
    # Set-up is what every run pays before its first packet: spawning
    # the workers, building and wiring the components, tearing down.
    # The fabric does all of it inside run(), so it is timed as a run
    # of the same scenario with no packets.
    empty = dataclasses.replace(spec, packets=0)
    setup_times = []
    for _ in range(setups):
        started = time.perf_counter()
        golden_fabric(empty, processes=2).run()
        setup_times.append(time.perf_counter() - started)
    twin = golden_netsim(spec)
    failed = abs(spec.packets - twin["counters"]["delivered"])
    attempted = 0

    if tree is not None:
        metrics, attempted, bad = trace_rows(spec, twin, tree, seconds)
        failed += bad
    else:
        rates, cpus, walls, rss = [], [], [], []
        deadline = time.perf_counter() + seconds
        while not rates or time.perf_counter() < deadline:
            cpu_before = cpu_now()
            with ChildRssSampler() as sampler:
                _, elapsed, bad = fabric_pass(spec, twin, 2)
            cpus.append((cpu_now() - cpu_before) / spec.packets * 1e6)
            rates.append(spec.packets / elapsed)
            walls.append(elapsed * 1e3)
            rss.append(sampler.total_mib())
            failed += bad
            attempted += spec.packets
        metrics = {
            "setup_s": median(setup_times),
            "pkts_per_s": median(rates),
            "cpu_us_per_pkt": median(cpus),
            "lat_p98_ms": percentile(walls, 0.98),
            "peak_rss_mb": peak_rss_mib(os.getpid()) + median(rss),
        }
    return {
        "attempted": attempted,
        "checks": {
            "not_delivered_as_in_twin": failed,
            "leaked_shm_segments": len(leaked_segments()),
        },
        "metrics": metrics,
    }
