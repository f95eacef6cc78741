"""Fabric component adapters for the repo's three simulation islands.

- :class:`NetsimComponent` wraps a whole :class:`~repro.netsim.topology.
  Topology` island: its internal discrete-event engine runs up to the
  conservative horizon each step, and :class:`PortalNode` endpoints
  turn boundary frames into fabric Delivers;
- :class:`EngineRouterComponent` is one router backed by a
  :class:`~repro.engine.ForwardingEngine`, with fabric virtual time
  plumbed through the engine's ``clock=`` seam (so PIT/CS state ages
  under simulation time, not ``now=0.0``);
- :class:`PisaRouterComponent` runs the PISA
  :class:`~repro.dataplane.dip_pipeline.DipPipeline`; its per-packet
  cycle cost (:func:`packet_service_cycles`, from ``dataplane/costs``)
  becomes service latency on every forward;
- :class:`HostComponent` is the source/sink: a finite injection
  schedule flushed eagerly (its sends depend on no input, so its
  channels close once drained -- what makes zero-latency acyclic
  scenarios terminate) plus delivery records with payload digests.

DIP payloads are canonical wire ``bytes`` on every channel.  The netsim
adapter hands them to a boundary router as they are (its flow-cache
front walks wire), decodes them only for any other boundary node, and
encodes at egress.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fn import FieldOperation
from repro.core.operations.base import Decision
from repro.core.packet import DipPacket
from repro.core.program import MAX_STAGES
from repro.dataplane.costs import CycleCostModel
from repro.dataplane.dip_pipeline import DipPipeline
from repro.engine import EngineConfig, ForwardingEngine, ManualClock
from repro.errors import CodecError, FabricError, PipelineConstraintError
from repro.fabric.messages import KIND_DIP, Inject
from repro.fabric.sync import INF, Component, payload_digest
from repro.netsim.engine import Engine
from repro.netsim.links import Link
from repro.netsim.messages import Frame
from repro.netsim.nodes import DipRouterNode, HostNode, Node
from repro.netsim.topology import Topology


# ----------------------------------------------------------------------
# shared service-latency model
# ----------------------------------------------------------------------
def packet_service_cycles(
    fns: Sequence[FieldOperation],
    header_length: int,
    packet_size: int,
    cost_model: CycleCostModel,
) -> int:
    """Deterministic per-packet cycle cost: parse + every FN's cost.

    Shared by the PISA fabric router (with what its parse read off the
    wire) and the netsim twin's ``service_delay`` hook (with its
    ``DipPacket``'s header), so both charge bit-identical latencies --
    the timing identity the golden scenario asserts rests on this
    being one function, not two reimplementations.
    """
    cycles = cost_model.parse_cycles(header_length, packet_size)
    for fn in fns:
        cycles += cost_model.fn_cycles(fn)
    return cycles


def make_service_delay(
    cost_model: CycleCostModel, cycle_time: float
) -> Callable[[DipPacket], float]:
    """``packet -> seconds`` closure over the shared cycle model."""

    def service_delay(packet: DipPacket) -> float:
        header = packet.header
        cycles = packet_service_cycles(
            header.fns, header.header_length, packet.size, cost_model
        )
        return cycles * cycle_time

    return service_delay


def _dip_wire(data: Any) -> bytes:
    """Canonicalize a DIP payload to wire bytes."""
    if isinstance(data, (bytes, bytearray, memoryview)):
        return bytes(data)
    return data.encode()


# ----------------------------------------------------------------------
# source / sink
# ----------------------------------------------------------------------
class HostComponent(Component):
    """A traffic source and delivery sink outside any simulator.

    ``injections`` is a finite schedule of :class:`Inject` messages
    (``port`` is the *local out port*, i.e. which fabric channel the
    frame leaves on).  Injections depend on no input, so they are
    flushed in :meth:`start` -- each Deliver keeps its own virtual
    timestamp -- and every output channel then closes (the
    ``Advance(inf)`` null message), freeing receivers from waiting on
    this component ever again.

    Deliveries are recorded as ``(time, "<id>:<port>", digest)``.
    """

    def __init__(
        self, component_id: str, injections: Sequence[Inject] = ()
    ) -> None:
        super().__init__(component_id)
        self.injections = list(injections)
        self.injected = 0
        self.delivered = 0
        self._records: List[Tuple[float, str, str]] = []

    def start(self) -> None:
        for inj in sorted(self.injections, key=lambda i: (i.time, i.seq)):
            if self.emit(inj.time, inj.port, inj.kind, inj.data, inj.size):
                self.injected += 1
        self._source_closed = True

    def on_frame(
        self, time: float, port: int, kind: str, data: Any, size: int
    ) -> None:
        self.delivered += 1
        self._records.append(
            (time, f"{self.id}:{port}", payload_digest(data))
        )

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update(injected=self.injected, delivered=self.delivered)
        return out

    def records(self) -> List[Tuple[float, str, str]]:
        return list(self._records)


# ----------------------------------------------------------------------
# engine-backed router
# ----------------------------------------------------------------------
class EngineRouterComponent(Component):
    """One router whose decisions come from a :class:`ForwardingEngine`.

    Fabric time reaches the engine through its ``clock=`` seam (a
    :class:`ManualClock` advanced to each batch's event time), so
    stateful protocols expire under virtual time.

    ``batching`` controls how safe events become engine batches:

    - ``"exact"`` (default): only equal-timestamp events share a
      batch, so every walk sees precisely its arrival time -- required
      when state aging must match a per-event simulator;
    - ``"window"``: one batch per safe window, stamped with the
      window's first event time -- the high-throughput mode, exact for
      time-insensitive state (pure FIB forwarding, the golden
      scenario), since emissions always use each frame's own
      timestamp either way.

    The engine router forwards at arrival time and answers repeated
    pure flows from its flow cache, matching a plain netsim
    ``DipRouterNode``.
    """

    def __init__(
        self,
        component_id: str,
        state_factory,
        registry_factory=None,
        cost_model=None,
        config: Optional[EngineConfig] = None,
        batching: str = "exact",
        keep_outcomes: bool = False,
    ) -> None:
        super().__init__(component_id)
        if batching not in ("exact", "window"):
            raise FabricError(f"unknown batching mode {batching!r}")
        self.batching = batching
        self.keep_outcomes = keep_outcomes
        self.virtual_clock = ManualClock()
        self.engine = ForwardingEngine(
            state_factory,
            cost_model=cost_model,
            config=(
                config
                if config is not None
                else EngineConfig(
                    num_shards=1, backend="serial", batch_size=256,
                    flow_cache=True,
                )
            ),
            registry_factory=registry_factory,
            clock=self.virtual_clock,
        )
        self.outcomes: List[object] = []
        self.forwarded = 0
        self.delivered = 0
        self.dropped = 0
        self.unsupported = 0
        self.non_dip_dropped = 0

    def step(self) -> int:
        before = self.processed
        horizon = self.horizon()
        events = self._events
        while events and events[0][0] < horizon:
            batch: List[bytes] = []
            times: List[float] = []
            window_time = events[0][0]
            while events and events[0][0] < horizon:
                if self.batching == "exact" and events[0][0] != window_time:
                    break
                time, _rank, _seq, _port, kind, data, _size = heapq.heappop(
                    events
                )
                self.processed += 1
                if time > self.clock:
                    self.clock = time
                if kind != KIND_DIP:
                    # Engine routers speak DIP only; a legacy or
                    # control frame is dropped like DipRouterNode does.
                    self.non_dip_dropped += 1
                    self.dropped += 1
                    continue
                batch.append(_dip_wire(data))
                times.append(time)
            if not batch:
                continue
            self.virtual_clock.advance_to(times[0])
            report = self.engine.run(batch)  # now read from the clock seam
            self._apply(report, times)
        return self.processed - before

    def _apply(self, report, times: List[float]) -> None:
        for outcome, time in zip(report.outcomes, times):
            if self.keep_outcomes:
                self.outcomes.append(outcome)
            if outcome is None:  # dead-lettered under fault plans
                self.dropped += 1
                continue
            decision = outcome.decision.value
            if decision == "forward":
                self.forwarded += 1
                wire = outcome.packet
                for port in outcome.ports:
                    self.emit(time, port, KIND_DIP, wire, len(wire))
            elif decision == "deliver":
                self.delivered += 1
            elif decision == "unsupported":
                self.unsupported += 1
            else:  # drop / error / refusal verdicts
                self.dropped += 1

    def state(self):
        """The single serial shard's node state (conformance reads it)."""
        if self.engine.config.num_shards != 1:
            raise FabricError("state() needs a single-shard engine")
        return self.engine.shard_state(0)

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update(
            forwarded=self.forwarded,
            delivered=self.delivered,
            dropped=self.dropped,
            unsupported=self.unsupported,
        )
        return out

    def close(self) -> None:
        self.engine.close()


# ----------------------------------------------------------------------
# PISA-pipeline router
# ----------------------------------------------------------------------
class PisaRouterComponent(Component):
    """A router modeled by the PISA pipeline, cycles mapped to time.

    Every forwarded packet is delayed by ``cycles * cycle_time``
    seconds, where cycles come from :func:`packet_service_cycles` over
    the *incoming* packet -- the same function the netsim twin's
    ``service_delay`` hook uses, so the two runs agree bit-for-bit.
    Packets beyond the parse graph's unroll budget are dropped and
    counted (``out_of_domain``) rather than crashing the component.
    ``parse_graph_walks`` counts the frames the parse graph walked bit
    by bit: one per FN program, plus every malformed wire.
    """

    def __init__(
        self,
        component_id: str,
        state_factory,
        registry_factory=None,
        cost_model: Optional[CycleCostModel] = None,
        cycle_time: float = 0.0,
        max_fns: int = MAX_STAGES,
    ) -> None:
        super().__init__(component_id)
        from repro.core.registry import default_registry

        registry = (
            registry_factory() if registry_factory is not None else None
        )
        self.pipeline = DipPipeline(
            state_factory(),
            registry if registry is not None else default_registry(),
            max_fns=max_fns,
        )
        self.cost_model = (
            cost_model if cost_model is not None else CycleCostModel()
        )
        self.cycle_time = cycle_time
        self.forwarded = 0
        self.delivered = 0
        self.dropped = 0
        self.quarantined = 0
        self.out_of_domain = 0
        self.non_dip_dropped = 0

    def on_frame(
        self, time: float, port: int, kind: str, data: Any, size: int
    ) -> None:
        if kind != KIND_DIP:
            self.non_dip_dropped += 1
            self.dropped += 1
            return
        wire = _dip_wire(data)
        try:
            result = self.pipeline.process(wire, ingress_port=port, now=time)
        except PipelineConstraintError:
            self.out_of_domain += 1
            self.dropped += 1
            return
        except Exception:
            self.quarantined += 1
            return
        if result.decision is Decision.FORWARD:
            self.forwarded += 1
            service = (
                packet_service_cycles(
                    result.fns, result.header_length, len(wire),
                    self.cost_model,
                )
                * self.cycle_time
            )
            out = result.wire
            for out_port in result.ports:
                self.emit(time + service, out_port, KIND_DIP, out, len(out))
        elif result.decision is Decision.DELIVER:
            self.delivered += 1
        else:
            self.dropped += 1

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update(
            forwarded=self.forwarded,
            delivered=self.delivered,
            dropped=self.dropped,
            quarantined=self.quarantined,
            out_of_domain=self.out_of_domain,
            parse_graph_walks=self.pipeline.parse_graph_walks,
        )
        return out


# ----------------------------------------------------------------------
# netsim island
# ----------------------------------------------------------------------
class PortalNode(Node):
    """A boundary endpoint inside an island: frames in, fabric out.

    Wired to the boundary router by a zero-delay internal link, so a
    frame transmitted at island time ``t`` reaches the portal at ``t``
    and leaves the island as ``Deliver(t + channel latency)`` --
    exactly the arithmetic a direct netsim link would do.
    """

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        component: "NetsimComponent",
        fabric_port: int,
    ) -> None:
        super().__init__(node_id, engine)
        self._component = component
        self._fabric_port = fabric_port

    def receive(self, frame: Frame, port: int) -> None:
        self.stats.received += 1
        self._component._portal_rx(self._fabric_port, frame)


class NetsimComponent(Component):
    """A whole netsim :class:`Topology` as one fabric participant.

    Build the island with :meth:`topology` helpers, then declare each
    fabric boundary with :meth:`open_port` -- which wires a
    :class:`PortalNode` to the boundary node over a zero-delay link
    and maps inbound Delivers to direct ``schedule_at`` receives on
    that node/port.  Each step drains safe buffered frames into the
    island engine (in the fabric's deterministic order) and runs the
    engine *strictly* below the horizon.
    """

    def __init__(self, component_id: str, trace=None) -> None:
        super().__init__(component_id)
        if trace is None:
            # Topology's default recorder keeps every event in memory;
            # a 100k-packet golden run cannot afford that.
            from repro.netsim.stats import TraceRecorder

            trace = TraceRecorder(enabled=False)
        self.topology = Topology(trace=trace)
        self.engine = self.topology.engine
        # fabric port -> (node, node port) for inbound injection
        self._ingress: Dict[int, Tuple[Node, int]] = {}
        self.injected = 0
        self._undecodable = 0
        self._records: List[Tuple[float, str, str]] = []
        self._max_events = 5_000_000

    # -- island construction -------------------------------------------
    def open_port(
        self, fabric_port: int, node_id: str, node_port: Optional[int] = None
    ) -> int:
        """Declare ``node_id``'s ``node_port`` as fabric boundary.

        Returns the node port used (allocated when omitted).  Must be
        called before the matching channel is wired.
        """
        node = self.topology.node(node_id)
        portal = PortalNode(
            f"{self.id}::portal{fabric_port}", self.engine, self, fabric_port
        )
        self.topology.add(portal)
        if node_port is None:
            node_port = node.allocate_port()
        link = Link(self.engine, delay=0.0)
        node.attach_link(node_port, link)
        portal.attach_link(0, link)
        self._ingress[fabric_port] = (node, node_port)
        return node_port

    def record_host(self, host: HostNode) -> None:
        """Record every accepted delivery at ``host`` into the report."""

        def app(node, packet, port):
            self._records.append(
                (
                    self.engine.now,
                    node.node_id,
                    payload_digest(packet.encode()),
                )
            )

        if host.app is not None:
            raise FabricError(f"{host.node_id} already has an app callback")
        host.app = app

    def schedule_send(
        self, host_id: str, time: float, packet: DipPacket, port: int = 0
    ) -> None:
        """Schedule a host send at island virtual ``time``."""
        host = self.topology.node(host_id)
        self.engine.schedule_at(time, host.send_packet, packet, port)
        self.injected += 1

    # -- fabric protocol -----------------------------------------------
    def _portal_rx(self, fabric_port: int, frame: Frame) -> None:
        data = frame.data
        if frame.kind == KIND_DIP:
            data = _dip_wire(data)
        self.emit(self.engine.now, fabric_port, frame.kind, data, frame.size)

    def _frame_for(
        self, node: Node, kind: str, data: Any, size: int
    ) -> Optional[Frame]:
        if kind == KIND_DIP:
            wire = _dip_wire(data)
            if isinstance(node, DipRouterNode):
                # The router's flow-cache front walks wire itself and
                # counts what does not decode.
                return Frame(KIND_DIP, wire, len(wire))
            try:
                return Frame.dip(DipPacket.decode(wire))
            except CodecError:
                self._undecodable += 1
                return None
        return Frame(kind=kind, data=data, size=size)

    @property
    def decode_errors(self) -> int:
        """Inbound DIP frames that did not decode, here or at a router."""
        return self._undecodable + sum(
            node.decode_errors
            for node in self.topology.nodes()
            if isinstance(node, DipRouterNode)
        )

    def step(self) -> int:
        horizon = self.horizon()
        events = self._events
        while events and events[0][0] < horizon:
            time, _rank, _seq, port, kind, data, size = heapq.heappop(events)
            target = self._ingress.get(port)
            if target is None:
                self.tx_errors += 1
                continue
            node, node_port = target
            frame = self._frame_for(node, kind, data, size)
            if frame is None:
                continue
            self.engine.schedule_at(time, node.receive, frame, node_port)
        processed = 0
        until = None if horizon == INF else horizon
        while True:
            ran = self.engine.run(
                until=until, max_events=self._max_events, strict=True
            )
            processed += ran
            if ran < self._max_events:
                break
        self.processed += processed
        if self.engine.now > self.clock:
            self.clock = self.engine.now
        return processed

    def next_event_time(self) -> float:
        bound = self._events[0][0] if self._events else INF
        queued = self.engine.next_time
        if queued is not None and queued < bound:
            bound = queued
        return bound

    def pending(self) -> int:
        return len(self._events) + self.engine.pending

    # -- reporting ------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        out = super().counters()
        delivered = rejected = dropped = forwarded = 0
        for node in self.topology.nodes():
            stats = node.stats
            forwarded += stats.forwarded
            dropped += stats.dropped
            if isinstance(node, HostNode):
                delivered += len(node.inbox)
                rejected += len(node.rejected)
        link_drops = 0
        seen = set()
        for node in self.topology.nodes():
            for link in node.ports.values():
                if id(link) in seen:
                    continue
                seen.add(id(link))
                link_drops += link.frames_dropped
        out.update(
            injected=self.injected,
            delivered=delivered,
            rejected=rejected,
            dropped=dropped,
            forwarded=forwarded,
            link_drops=link_drops,
            decode_errors=self.decode_errors,
            sim_events=self.engine.events_processed,
        )
        return out

    def records(self) -> List[Tuple[float, str, str]]:
        return list(self._records)
