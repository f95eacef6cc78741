"""Simulated network nodes: hosts, DIP routers, legacy and border routers.

The DIP router is a thin shell around
:class:`repro.core.processor.RouterProcessor`'s flow-cache front; the
simulator's job is only moving frames, replicating multicast forwards,
generating cache-hit replies, and signalling unsupported FNs back to
the source (flooded with de-duplication, standing in for ICMP reverse
routing).  Trace strings are formatted only while the recorder is
enabled.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.compat import FnUnsupportedMessage
from repro.core.flowcache import FlowDecisionCache
from repro.core.host import HostStack, ReceiveResult
from repro.core.operations.base import Decision
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor
from repro.core.registry import OperationRegistry
from repro.core.state import NodeState
from repro.errors import CodecError, SimulationError
from repro.netsim.engine import Engine
from repro.netsim.links import Link
from repro.netsim.messages import (
    KIND_CONTROL,
    KIND_DIP,
    KIND_IPV4,
    KIND_IPV6,
    Frame,
)
from repro.netsim.stats import NodeStats, TraceRecorder
from repro.netsim.tunnel import decapsulate_dip, encapsulate_dip, is_tunnel_packet
from repro.protocols.ip.router import IpRouter
from repro.realize.ndn import build_data_packet

_control_sequence = itertools.count(1)


def _as_packet(packet: Union[DipPacket, bytes]) -> DipPacket:
    """The ``DipPacket`` of a frame's data, decoding wire bytes."""
    return DipPacket.decode(packet) if isinstance(packet, bytes) else packet


class Node:
    """Base simulated node: ports, counters, trace hook."""

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)
        self.ports: Dict[int, Link] = {}
        self.stats = NodeStats()

    def attach_link(self, port: int, link: Link) -> None:
        """Bind a link to a port (topology builder calls this)."""
        if port in self.ports:
            raise SimulationError(f"{self.node_id}: port {port} already wired")
        self.ports[port] = link
        link.attach(self, port)

    def allocate_port(self) -> int:
        """The smallest port number not yet wired.

        Generated topologies (:mod:`repro.netsim.internet`) never
        hand-number ports; :meth:`Topology.connect` calls this when a
        port argument is omitted.
        """
        port = 0
        while port in self.ports:
            port += 1
        return port

    def send(self, port: int, frame: Frame) -> bool:
        """Transmit a frame out of ``port``."""
        link = self.ports.get(port)
        if link is None:
            self.trace.record(
                self.engine.now, self.node_id, "tx-error", f"no link on port {port}"
            )
            return False
        return link.transmit(self.node_id, frame)

    def receive(self, frame: Frame, port: int) -> None:
        """Handle an arriving frame (subclasses implement)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # control flooding with de-duplication
    # ------------------------------------------------------------------
    def _flood_control(self, frame: Frame, except_port: Optional[int]) -> None:
        for port in self.ports:
            if port != except_port:
                self.send(port, frame)


class DipRouterNode(Node):
    """A DIP-capable router running Algorithm 1 behind a flow cache.

    Every packet goes through ``process_batch`` with a per-router
    :class:`~repro.core.flowcache.FlowDecisionCache`, so a repeated pure
    flow is answered without a walk; stateful programs (PIT/CS, MACs,
    ...) bypass it.  Frames carry ``DipPacket``s or, from a fabric
    boundary, wire bytes: those take the raw prelude, whose cache hit
    builds only the output packet, and are decoded only where a
    ``DipPacket`` is read (a delivery, the FN-unsupported control frame,
    ``service_delay``).  A wire that does not decode counts in
    ``decode_errors``.  Trace notes are collected only while the
    recorder is enabled, which is when the drop reason is read.
    """

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        trace: Optional[TraceRecorder] = None,
        state: Optional[NodeState] = None,
        registry: Optional[OperationRegistry] = None,
        cost_model: Optional[object] = None,
        service_delay: Optional[Callable[[DipPacket], float]] = None,
    ) -> None:
        super().__init__(node_id, engine, trace)
        self.state = state if state is not None else NodeState(node_id=node_id)
        self.processor = RouterProcessor(
            self.state,
            registry=registry,
            cost_model=cost_model,
            flow_cache=FlowDecisionCache(),
        )
        # Optional per-packet service latency (seconds) charged on the
        # egress of a FORWARD, computed from the *incoming* packet --
        # the PISA cycle model mapped to time.  None keeps the
        # historical forward-at-receive-time behaviour, so the fabric's
        # netsim twin and a PISA-backed fabric router charge identical
        # latencies from one shared function.
        self.service_delay = service_delay
        self.local_inbox: List[Tuple[DipPacket, int]] = []
        self.decode_errors = 0
        self._seen_control: Set[int] = set()

    def receive(self, frame: Frame, port: int) -> None:
        self.stats.received += 1
        if frame.kind == KIND_CONTROL:
            self._handle_control(frame, port)
            return
        if frame.kind != KIND_DIP:
            # A DIP router fronted with legacy traffic drops it unless a
            # border router (subclass) translates.
            self.stats.dropped += 1
            if self.trace.enabled:
                self.trace.record(
                    self.engine.now, self.node_id, "drop",
                    f"legacy frame {frame.kind}",
                )
            return
        self._process_dip(frame.data, port)

    # ------------------------------------------------------------------
    def _process_dip(self, packet: Union[DipPacket, bytes], port: int) -> None:
        tracing = self.trace.enabled
        try:
            [result] = self.processor.process_batch(
                (packet,),
                ingress_port=port,
                now=self.engine.now,
                collect_notes=tracing,
            )
        except CodecError as exc:
            if not isinstance(packet, bytes):
                raise
            self.decode_errors += 1
            if tracing:
                self.trace.record(
                    self.engine.now, self.node_id, "decode-error", str(exc)
                )
            return

        cached = result.scratch.get("cache_data")
        if cached is not None and result.decision is Decision.FORWARD:
            # Content-store hit: answer the interest with the cached data.
            digest = int.from_bytes(cached.name.components[0], "big")
            reply = build_data_packet(digest, content=cached.content)
            self.stats.forwarded += 1
            self.trace.record(
                self.engine.now, self.node_id, "cache-reply", str(digest)
            )
            for out_port in result.ports:
                self.send(out_port, Frame.dip(reply))
            return

        if result.decision is Decision.FORWARD:
            self.stats.forwarded += 1
            if tracing:
                self.trace.record(
                    self.engine.now,
                    self.node_id,
                    "forward",
                    f"ports {result.ports}",
                )
            delay = (
                self.service_delay(_as_packet(packet))
                if self.service_delay is not None
                else 0.0
            )
            for out_port in result.ports:
                if delay > 0.0:
                    self.engine.schedule(
                        delay,
                        self.forward_frame,
                        out_port,
                        Frame.dip(result.packet),
                        port,
                    )
                else:
                    self.forward_frame(
                        out_port, Frame.dip(result.packet), port
                    )
        elif result.decision is Decision.DELIVER:
            self.stats.delivered += 1
            packet = _as_packet(packet)
            self.local_inbox.append((packet, port))
            if tracing:
                self.trace.record(self.engine.now, self.node_id, "deliver")
            self.on_deliver(packet, port)
        elif result.decision is Decision.UNSUPPORTED:
            self.stats.unsupported += 1
            self.stats.control_sent += 1
            message = FnUnsupportedMessage(
                reporter_id=self.node_id,
                unsupported_key=result.unsupported_key or 0,
                original_header=_as_packet(packet).header.encode()[:64],
            )
            control = Frame.control((next(_control_sequence), message))
            self.trace.record(
                self.engine.now,
                self.node_id,
                "fn-unsupported",
                f"key {result.unsupported_key}",
            )
            self.send(port, control)
        else:
            self.stats.dropped += 1
            if tracing:
                reason = result.notes[-1] if result.notes else ""
                self.trace.record(self.engine.now, self.node_id, "drop", reason)

    def forward_frame(self, out_port: int, frame: Frame, in_port: int) -> None:
        """Egress hook (border routers override for tunnelling)."""
        self.send(out_port, frame)

    def on_deliver(self, packet: DipPacket, port: int) -> None:
        """Local-delivery hook for subclasses/applications."""

    def _handle_control(self, frame: Frame, port: int) -> None:
        from repro.netsim.bootstrap import FnDiscoveryReply, FnDiscoveryRequest

        msg_id, message = frame.data
        if isinstance(message, FnDiscoveryRequest):
            # DHCP-like FN discovery (Section 2.3): answer directly.
            reply = FnDiscoveryReply(
                router_id=self.node_id,
                keys=frozenset(self.processor.registry.supported_keys()),
            )
            self.stats.control_sent += 1
            self.trace.record(
                self.engine.now, self.node_id, "fn-discovery",
                f"answered {message.host_id}",
            )
            self.send(port, Frame.control((next(_control_sequence), reply)))
            return
        if isinstance(message, FnDiscoveryReply):
            return  # replies never transit routers
        if msg_id in self._seen_control:
            return
        self._seen_control.add(msg_id)
        self._flood_control(frame, except_port=port)


class HostNode(Node):
    """An end host: constructs packets, executes host-tagged FNs.

    Parameters
    ----------
    app:
        Optional callback ``app(host, packet, port)`` invoked for every
        accepted packet (producers build replies here).
    """

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        trace: Optional[TraceRecorder] = None,
        stack: Optional[HostStack] = None,
        app: Optional[Callable[["HostNode", DipPacket, int], None]] = None,
    ) -> None:
        super().__init__(node_id, engine, trace)
        self.stack = stack if stack is not None else HostStack(
            state=NodeState(node_id=node_id)
        )
        self.app = app
        self.inbox: List[Tuple[DipPacket, ReceiveResult]] = []
        self.rejected: List[Tuple[DipPacket, ReceiveResult]] = []
        self.control_inbox: List[FnUnsupportedMessage] = []
        self._seen_control: Set[int] = set()

    def send_packet(self, packet: DipPacket, port: int = 0) -> bool:
        """Validate the construction and put the packet on the wire."""
        self.stack.check_construction(packet.header)
        if self.trace.enabled:
            self.trace.record(self.engine.now, self.node_id, "send")
        return self.send(port, Frame.dip(packet))

    def send_discovery_request(self, port: int = 0) -> None:
        """Ask the access router for its FN capability set."""
        from repro.netsim.bootstrap import FnDiscoveryRequest

        request = FnDiscoveryRequest(host_id=self.node_id)
        self.trace.record(self.engine.now, self.node_id, "fn-discovery-request")
        self.send(port, Frame.control((next(_control_sequence), request)))

    def receive(self, frame: Frame, port: int) -> None:
        self.stats.received += 1
        if frame.kind == KIND_CONTROL:
            from repro.netsim.bootstrap import (
                FnDiscoveryReply,
                FnDiscoveryRequest,
            )

            msg_id, message = frame.data
            if isinstance(message, FnDiscoveryReply):
                self.stack.learn_available_fns(set(message.keys))
                self.trace.record(
                    self.engine.now, self.node_id, "bootstrap",
                    f"learned {len(message.keys)} FNs from "
                    f"{message.router_id}",
                )
                return
            if isinstance(message, FnDiscoveryRequest):
                return  # hosts do not answer discovery
            if msg_id not in self._seen_control:
                self._seen_control.add(msg_id)
                self.control_inbox.append(message)
                self.trace.record(
                    self.engine.now, self.node_id, "control",
                    f"FN {message.unsupported_key} unsupported at "
                    f"{message.reporter_id}",
                )
            return
        if frame.kind != KIND_DIP:
            self.stats.dropped += 1
            return
        packet: DipPacket = frame.data
        result = self.stack.receive(packet, ingress_port=port, now=self.engine.now)
        if result.accepted:
            self.stats.delivered += 1
            self.inbox.append((packet, result))
            if self.trace.enabled:
                self.trace.record(self.engine.now, self.node_id, "accept")
            if self.app is not None:
                self.app(self, packet, port)
        else:
            self.stats.dropped += 1
            self.rejected.append((packet, result))
            self.trace.record(
                self.engine.now, self.node_id, "reject",
                result.notes[-1] if result.notes else "",
            )


class LegacyRouterNode(Node):
    """A plain IP router that knows nothing about DIP."""

    def __init__(
        self,
        node_id: str,
        engine: Engine,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        super().__init__(node_id, engine, trace)
        self.router = IpRouter(node_id)

    def receive(self, frame: Frame, port: int) -> None:
        self.stats.received += 1
        if frame.kind == KIND_IPV4:
            result = self.router.forward_v4(frame.data)
        elif frame.kind == KIND_IPV6:
            result = self.router.forward_v6(frame.data)
        else:
            # DIP frames are unparseable garbage to a legacy router.
            self.stats.dropped += 1
            self.trace.record(
                self.engine.now, self.node_id, "drop", f"unknown kind {frame.kind}"
            )
            return
        if result.dropped:
            self.stats.dropped += 1
            self.trace.record(self.engine.now, self.node_id, "drop", result.reason)
            return
        self.stats.forwarded += 1
        self.send(result.egress_port, Frame.legacy(frame.kind, result.packet))


class BorderRouterNode(DipRouterNode):
    """A DIP router on the edge of a legacy domain.

    Two Section 2.4 interop modes, selectable per port:

    - **tunnel ports** (:meth:`add_tunnel`): the whole DIP packet is
      encapsulated in IPv4 toward the remote border router; arriving
      tunnel packets are decapsulated and processed as DIP (incremental
      deployment across a DIP-agnostic core);
    - **strip ports** (:meth:`add_strip_port`): for packets whose FN
      locations embed a legacy header ("the existing network protocol
      header can be viewed as an FN location"), the DIP basic header
      and FN definitions are removed on egress so legacy devices route
      the bare packet, and re-added on ingress from a configured
      template (backward compatibility).
    """

    def __init__(self, node_id: str, engine: Engine, **kwargs) -> None:
        super().__init__(node_id, engine, **kwargs)
        # port -> (local_v4, remote_v4)
        self.tunnels: Dict[int, Tuple[int, int]] = {}
        # port -> template DIP packet used to re-add the framing
        self.strip_templates: Dict[int, DipPacket] = {}

    def add_tunnel(self, port: int, local_v4: int, remote_v4: int) -> None:
        """Declare ``port`` as a tunnel toward ``remote_v4``."""
        self.tunnels[port] = (local_v4, remote_v4)

    def add_strip_port(self, port: int, template: DipPacket) -> None:
        """Declare ``port`` as a strip/rewrap boundary.

        ``template`` supplies the FN definitions restored on ingress
        (border routers of one domain share this configuration).
        """
        self.strip_templates[port] = template

    def forward_frame(self, out_port: int, frame: Frame, in_port: int) -> None:
        tunnel = self.tunnels.get(out_port)
        if tunnel is not None and frame.kind == KIND_DIP:
            local_v4, remote_v4 = tunnel
            raw = encapsulate_dip(frame.data, local_v4, remote_v4)
            self.trace.record(
                self.engine.now, self.node_id, "encapsulate",
                f"toward {remote_v4:#010x}",
            )
            self.send(out_port, Frame.legacy(KIND_IPV4, raw))
            return
        if out_port in self.strip_templates and frame.kind == KIND_DIP:
            from repro.core.compat import strip_to_legacy
            from repro.core.header import (
                NEXT_HEADER_LEGACY_IPV4,
                NEXT_HEADER_LEGACY_IPV6,
            )

            packet: DipPacket = frame.data
            if packet.header.next_header in (
                NEXT_HEADER_LEGACY_IPV4, NEXT_HEADER_LEGACY_IPV6,
            ):
                kind = (
                    KIND_IPV4
                    if packet.header.next_header == NEXT_HEADER_LEGACY_IPV4
                    else KIND_IPV6
                )
                self.trace.record(self.engine.now, self.node_id, "strip")
                self.send(out_port, Frame.legacy(kind, strip_to_legacy(packet)))
                return
        super().forward_frame(out_port, frame, in_port)

    def receive(self, frame: Frame, port: int) -> None:
        if frame.kind == KIND_IPV4 and is_tunnel_packet(frame.data):
            inner = decapsulate_dip(frame.data)
            self.trace.record(self.engine.now, self.node_id, "decapsulate")
            self.stats.received += 1
            self._process_dip(inner, port)
            return
        template = self.strip_templates.get(port)
        if template is not None and frame.kind in (KIND_IPV4, "ipv6"):
            from repro.core.compat import rewrap_from_legacy

            rewrapped = rewrap_from_legacy(frame.data, template)
            self.trace.record(self.engine.now, self.node_id, "rewrap")
            self.stats.received += 1
            self._process_dip(rewrapped, port)
            return
        super().receive(frame, port)
