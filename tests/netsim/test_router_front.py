"""A netsim DIP router decides exactly like ``RouterProcessor.process``.

``DipRouterNode`` walks Algorithm 1 through ``process_batch`` behind a
per-router flow cache.  Every conformance-corpus scenario's wires are
replayed through one such router, wired to a recording sink on each
port, twice in a row (the first pass fills the cache, the second is
served from it), against ``RouterProcessor.process`` on a twin state.
Per wire the two must agree on the frames leaving each port, local
deliveries, drop counts and the traced drop reason, the FN-unsupported
control frame and the content-store reply.
"""

import re
from collections import Counter

import pytest

from repro.conformance import load_corpus
from repro.conformance.scenarios import Scenario
from repro.core.packet import DipPacket
from repro.core.processor import Decision, RouterProcessor
from repro.errors import CodecError
from repro.netsim.messages import KIND_CONTROL, KIND_DIP, Frame
from repro.netsim.nodes import DipRouterNode, Node
from repro.netsim.stats import TraceRecorder
from repro.netsim.topology import Topology
from repro.protocols.ndn.cs import ContentStore
from repro.realize.ndn import (
    build_data_packet,
    build_interest_packet,
    name_digest,
)

from tests.conformance.conftest import CORPUS_DIR

INGRESS = 0
PORTS = 16  # every egress port a scenario's tables name
VECTORS = load_corpus(CORPUS_DIR)
SCENARIOS = sorted({vector.scenario for vector in VECTORS})


class Sink(Node):
    """Records every frame that reaches it."""

    def __init__(self, node_id, engine):
        super().__init__(node_id, engine)
        self.frames = []

    def receive(self, frame, port):
        self.frames.append(frame)


def frame_view(frame):
    if frame.kind == KIND_DIP:
        return (KIND_DIP, frame.data.encode())
    _, message = frame.data
    return (frame.kind, message)


def expected_frames(router_id, packet, result):
    """What ``DipRouterNode`` puts on each port for ``result``."""
    if result.decision is Decision.FORWARD:
        cached = result.scratch.get("cache_data")
        if cached is not None:
            digest = int.from_bytes(cached.name.components[0], "big")
            out = build_data_packet(digest, content=cached.content)
        else:
            out = result.packet
        return {port: [(KIND_DIP, out.encode())] for port in result.ports}
    if result.decision is Decision.UNSUPPORTED:
        from repro.core.compat import FnUnsupportedMessage

        message = FnUnsupportedMessage(
            reporter_id=router_id,
            unsupported_key=result.unsupported_key or 0,
            original_header=packet.header.encode()[:64],
        )
        return {INGRESS: [(KIND_CONTROL, message)]}
    return {}


class Bench:
    """One router under test plus its sinks and its twin processor."""

    def __init__(self, scenario, tracing, configure=None):
        states = [scenario.state(), scenario.state()]
        if configure is not None:
            for state in states:
                configure(state)
        self.topo = Topology(trace=TraceRecorder(enabled=tracing))
        self.router = DipRouterNode(
            "front",
            self.topo.engine,
            trace=self.topo.trace,
            state=states[0],
            registry=scenario.registry(),
        )
        self.sinks = {}
        for port in range(PORTS):
            sink = Sink(f"sink{port}", self.topo.engine)
            self.topo.connect(self.router, port, sink, 0, delay=0.0)
            self.sinks[port] = sink
        self.twin = RouterProcessor(states[1], registry=scenario.registry())
        self.seen = Counter()

    def replay(self, wire):
        try:
            packet = DipPacket.decode(wire)
        except CodecError:
            return  # a netsim frame always carries a decoded packet
        try:
            expected = self.twin.process(packet, ingress_port=INGRESS)
        except Exception as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                self.router.receive(Frame.dip(packet), INGRESS)
            self.seen["raised"] += 1
            return
        stats = self.router.stats
        before = (stats.forwarded, stats.delivered, stats.dropped)
        inbox = len(self.router.local_inbox)
        drops = len(self.topo.trace.of_kind("drop"))
        for sink in self.sinks.values():
            sink.frames.clear()

        self.router.receive(Frame.dip(packet), INGRESS)
        self.topo.run()

        assert set(expected.ports) <= set(self.sinks)
        sent = {
            port: [frame_view(f) for f in sink.frames]
            for port, sink in self.sinks.items()
            if sink.frames
        }
        assert sent == expected_frames("front", packet, expected)

        decision = expected.decision
        forwarded = decision is Decision.FORWARD
        delivered = decision is Decision.DELIVER
        dropped = decision in (Decision.DROP, Decision.ERROR)
        after = (stats.forwarded, stats.delivered, stats.dropped)
        assert after == (
            before[0] + forwarded, before[1] + delivered, before[2] + dropped
        )
        assert len(self.router.local_inbox) == inbox + delivered
        traced = self.topo.trace.of_kind("drop")[drops:]
        if self.topo.trace.enabled and dropped:
            reason = expected.notes[-1] if expected.notes else ""
            assert [event.detail for event in traced] == [reason]
        else:
            assert traced == ()
        if forwarded and "cache_data" in expected.scratch:
            self.seen["cs-reply"] += 1
        else:
            self.seen[decision.value] += 1


@pytest.mark.parametrize("tracing", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_router_front_matches_process(scenario, tracing):
    seen = Counter()
    hits = 0
    for vector in (v for v in VECTORS if v.scenario == scenario):
        bench = Bench(Scenario(vector.scenario, vector.seed), tracing)
        wires = vector.wire_bytes()
        for wire in wires + wires:  # cold cache, then warm
            bench.replay(wire)
        seen.update(bench.seen)
        hits += bench.router.processor.flow_cache.hits
    assert sum(seen.values()) > 0
    if scenario == "ip":
        assert hits > 0, "the warm pass never reached the cache"


def test_corpus_reaches_every_router_outcome():
    seen = Counter()
    for vector in VECTORS:
        bench = Bench(Scenario(vector.scenario, vector.seed), True)
        for wire in vector.wire_bytes():
            bench.replay(wire)
        seen.update(bench.seen)
    for outcome in ("forward", "deliver", "drop", "unsupported", "raised"):
        assert seen[outcome] > 0, (outcome, seen)


def test_content_store_hit_replies_with_the_cached_data():
    # The corpus states keep no content store, so arm one: the data
    # answering the interest is cached, and the interest's repeats are
    # answered from it instead of being forwarded again.
    def arm(state):
        state.content_store = ContentStore(8)
        state.name_fib_digest.insert(name_digest("/cs"), 32, 5)

    bench = Bench(Scenario("ndn"), tracing=True, configure=arm)
    interest = build_interest_packet("/cs").encode()
    data = build_data_packet("/cs", b"cached content").encode()
    for wire in (interest, data, interest, interest):
        bench.replay(wire)
    assert bench.seen == Counter({"forward": 2, "cs-reply": 2})
