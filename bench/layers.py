"""Spans around the program's public layer boundaries, and self time.

The traced run records spans from here, in the benchmark's own files,
*around* its calls into each layer; nothing under ``src/`` is edited.
A span carries an ``id``, the ``parent`` span that caused it, the
``lap`` (repeat) it belongs to and how many ``packets`` it covered, so
per-packet cost and self time (span minus child spans) fall out of the
trace file alone.
"""

from __future__ import annotations

import itertools
import time
from statistics import median
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from repro.core.flowcache import FlowDecisionCache
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.engine import FlowDispatcher
from repro.engine.columnar import ColumnarSpecializer
from repro.telemetry.tracing import Span, Tracer


BATCH = 64  # ServeConfig.batch_max and EngineConfig.batch_size default


class SpanTree:
    """A :class:`Tracer` whose spans know their parent."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self._ids = itertools.count(1)

    @contextmanager
    def span(
        self, name: str, lap: int, packets: int,
        parent: Optional[Span] = None, **attrs,
    ) -> Iterator[Span]:
        with self.tracer.span(
            name,
            id=next(self._ids),
            parent=None if parent is None else parent.attrs["id"],
            lap=lap,
            packets=packets,
            **attrs,
        ) as record:
            yield record

    def _per_lap(
        self,
        name: str,
        where: Dict[str, object],
        seconds_of: Callable[[Span], float],
    ) -> float:
        seconds: Dict[int, float] = defaultdict(float)
        packets: Dict[int, int] = defaultdict(int)
        for span in self.tracer.of_name(name):
            attrs = span.attrs
            if any(attrs.get(key) != value for key, value in where.items()):
                continue
            seconds[attrs["lap"]] += seconds_of(span)
            packets[attrs["lap"]] += attrs["packets"]
        if not seconds:
            raise KeyError(f"no span {name!r} {where} was recorded")
        return median(
            [seconds[lap] / packets[lap] * 1e6 for lap in seconds]
        )

    def us_per_packet(self, name: str, **where) -> float:
        """Median over laps of (span time / packets covered), in us.

        ``where`` keeps only the spans carrying those attribute values.
        """
        return self._per_lap(name, where, lambda span: span.duration)

    def self_us_per_packet(self, name: str, **where) -> float:
        """Like :meth:`us_per_packet`, minus the time of child spans."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.tracer.spans:
            if span.attrs["parent"] is not None:
                children[span.attrs["parent"]] += span.duration
        return self._per_lap(
            name,
            where,
            lambda span: span.duration - children[span.attrs["id"]],
        )


def batches(wires: Sequence[bytes]) -> List[List[bytes]]:
    return [
        list(wires[start:start + BATCH])
        for start in range(0, len(wires), BATCH)
    ]


def walk_core_layers(
    tree: SpanTree,
    wires: Sequence[bytes],
    state_factory: Callable[[], object],
    shards: int,
    laps: int,
    now: Callable[[], float] = time.monotonic,
) -> Dict[str, int]:
    """Time the layers below the engine on ``wires``, 64 at a time.

    Each layer gets a fresh node state and sees the same batches in the
    same order, so stateful compositions (PIT, content store) evolve
    the same way under every layer.  P4's stage names map onto the
    rows: ``core.packet.decode`` is parse, the flow cache and the
    columnar kernel are match, the scalar walk is match + action.
    Returns the columnar specializer's own counters; the times are in
    ``tree`` (see :func:`core_layer_rows`).
    """
    groups = batches(wires)
    dispatcher = FlowDispatcher(shards)
    cached = RouterProcessor(state_factory(), flow_cache=FlowDecisionCache())
    scalar = RouterProcessor(state_factory())
    single = RouterProcessor(state_factory())
    columnar = ColumnarSpecializer(RouterProcessor(state_factory()))
    for lap in range(laps):
        for group in groups:
            count = len(group)
            with tree.span("engine.dispatch.shards_of", lap, count):
                dispatcher.shards_of(group)
            with tree.span("core.flowcache.process_batch", lap, count):
                cached.process_batch(group, now=now())
            with tree.span("core.processor.process_batch", lap, count):
                scalar.process_batch(group, now=now())
            stamp = now()
            with tree.span("core.processor.process", lap, count):
                for wire in group:
                    single.process(DipPacket.decode(wire), now=stamp)
            with tree.span("core.packet.decode", lap, count):
                packets = [DipPacket.decode(wire) for wire in group]
            with tree.span("core.packet.encode", lap, count):
                for packet in packets:
                    packet.encode()
            with tree.span("engine.columnar.process_batch", lap, count):
                columnar.process_batch(group, now=now())
    return columnar.stats.as_dict()


_CORE_SPANS = {
    "engine.dispatch.shards_of_us_per_pkt": "engine.dispatch.shards_of",
    "core.flowcache.us_per_pkt": "core.flowcache.process_batch",
    "core.processor.process_batch_us_per_pkt": "core.processor.process_batch",
    "core.processor.process_us_per_pkt": "core.processor.process",
    "core.packet.decode_us_per_pkt": "core.packet.decode",
    "core.packet.encode_us_per_pkt": "core.packet.encode",
    "engine.columnar.us_per_pkt": "engine.columnar.process_batch",
}


def core_layer_rows(
    tree: SpanTree, columnar_stats: Sequence[Dict[str, int]]
) -> Dict[str, float]:
    """The metric rows of one or more :func:`walk_core_layers` calls."""
    rows = {
        metric: tree.us_per_packet(span)
        for metric, span in _CORE_SPANS.items()
    }
    vectorized = sum(s["vectorized_packets"] for s in columnar_stats)
    fallback = sum(s["fallback_packets"] for s in columnar_stats)
    rows["engine.columnar.vectorized_ratio"] = (
        vectorized / (vectorized + fallback) if vectorized + fallback else 0.0
    )
    rows["engine.columnar.kernel_refusals"] = float(
        sum(s["kernel_refusals"] for s in columnar_stats)
    )
    return rows


def engine_report_rows(
    reports: Sequence[object], parallel: bool
) -> Dict[str, float]:
    """Per-layer rows the engine's own reports already carry.

    ``reports`` are :class:`~repro.engine.EngineReport` objects from
    the traced ``ForwardingEngine.run`` calls.  Supervisor time is run
    wall time minus the time shards were busy: sequencing, rings and
    IPC, and report assembly.  With ``parallel`` workers the busy time
    is first divided by the shard count, i.e. the shards are assumed to
    overlap perfectly, which makes the row a lower bound there.
    """
    packets = sum(report.packets_offered for report in reports)
    wall = sum(report.wall_seconds for report in reports)
    busy = sum(
        shard.busy_seconds for report in reports for shard in report.shards
    )
    shards = max(len(report.shards) for report in reports)
    hits = misses = bypasses = 0
    for report in reports:
        if report.flow_cache is not None:
            hits += report.flow_cache.hits
            misses += report.flow_cache.misses
            bypasses += report.flow_cache.bypasses
    looked_up = hits + misses + bypasses
    covered = busy / shards if parallel else busy
    return {
        "engine.engine.supervisor_us_per_pkt": (
            (wall - covered) / packets * 1e6
        ),
        "engine.workers.busy_ratio": busy / (wall * shards),
        "engine.engine.restarts": float(
            sum(report.worker_restarts for report in reports)
        ),
        "engine.engine.retries": float(
            sum(report.retries for report in reports)
        ),
        "engine.engine.dead_letters": float(
            sum(report.dead_letter_total for report in reports)
        ),
        "engine.rings.high_watermark": float(
            max(
                (ring.high_watermark for report in reports
                 for ring in report.rings),
                default=0,
            )
        ),
        "engine.rings.dropped": float(
            sum(report.packets_dropped_backpressure for report in reports)
        ),
        "core.flowcache.hit_ratio": hits / looked_up if looked_up else 0.0,
        "core.flowcache.bypass_ratio": (
            bypasses / looked_up if looked_up else 0.0
        ),
    }
