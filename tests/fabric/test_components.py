"""The three island adapters (repro.fabric.components)."""

import math

import pytest

from repro.core.packet import DipPacket
from repro.core.state import NodeState
from repro.dataplane.costs import CycleCostModel
from repro.errors import FabricError
from repro.fabric.components import (
    EngineRouterComponent,
    HostComponent,
    NetsimComponent,
    PisaRouterComponent,
    make_service_delay,
    packet_service_cycles,
)
from repro.fabric.messages import KIND_CONTROL, KIND_DIP, Advance, Deliver, Inject
from repro.fabric.runner import FabricRun, duplex
from repro.netsim.nodes import DipRouterNode, HostNode
from repro.realize import build_ipv4_packet
from repro.workloads.paper import FABRIC_LOSSES

DST = 0x0A020001
SRC = 0x0A030001


def router_state(node_id="r", port=1):
    state = NodeState(node_id=node_id)
    state.fib_v4.insert(0x0A020000, 16, port)
    return state


def wire(payload=b"p"):
    return build_ipv4_packet(DST, SRC, payload=payload).encode()


def advance(src, dst, port, time=math.inf):
    return Advance(src, dst, port, time)


def service_cycles(packet, model):
    header = packet.header
    return packet_service_cycles(
        header.fns, header.header_length, packet.size, model
    )


class TestServiceCycles:
    def test_matches_cost_model_decomposition(self):
        model = CycleCostModel()
        packet = build_ipv4_packet(DST, SRC, payload=b"xyz")
        expected = model.parse_cycles(
            len(packet.header.encode()), packet.size
        ) + sum(model.fn_cycles(fn) for fn in packet.header.fns)
        assert service_cycles(packet, model) == expected

    def test_service_delay_scales_by_cycle_time(self):
        model = CycleCostModel()
        packet = build_ipv4_packet(DST, SRC)
        delay = make_service_delay(model, 2e-9)
        assert delay(packet) == pytest.approx(
            service_cycles(packet, model) * 2e-9
        )

    def test_pisa_parse_charges_what_the_twin_charges(self):
        model = CycleCostModel()
        packet = build_ipv4_packet(DST, SRC, payload=b"xyz")
        result = PisaRouterComponent(
            "pr", lambda: router_state("pr")
        ).pipeline.process(packet.encode())
        assert result.header_length == packet.header.header_length
        assert packet_service_cycles(
            result.fns, result.header_length, packet.size, model
        ) == service_cycles(packet, model)


class TestHostComponent:
    def test_flushes_schedule_in_time_seq_order(self):
        injections = [
            Inject(0.2, "h", 0, KIND_DIP, b"late", 4, seq=0),
            Inject(0.1, "h", 0, KIND_DIP, b"early", 5, seq=1),
        ]
        host = HostComponent("h", injections)
        host.add_output(0, "d", 0, latency=0.0, rank=0)
        host.start()
        times = [m.time for m in host.take_outbox()]
        assert times == [0.1, 0.2]
        assert host.injected == 2
        assert host._source_closed

    def test_records_deliveries_with_digests(self):
        host = HostComponent("h")
        host.add_input("r", 0, rank=0)
        host.accept(Deliver(1.0, "r", "h", 0, KIND_DIP, b"data", 4, 1))
        host.accept(advance("r", "h", 0))
        host.step()
        [(when, where, digest)] = host.records()
        assert (when, where) == (1.0, "h:0")
        assert len(digest) == 16
        assert host.delivered == 1


def engine_router(**kwargs):
    component = EngineRouterComponent(
        "er", lambda: router_state("er"), **kwargs
    )
    component.add_input("src", 0, rank=0)
    component.add_output(1, "dst", 0, latency=0.5, rank=1)
    component.default_out = 1
    return component


class TestEngineRouterComponent:
    def _feed(self, component, frames):
        for seq, (time, data) in enumerate(frames, start=1):
            component.accept(
                Deliver(time, "src", "er", 0, KIND_DIP, data, len(data), seq)
            )
        component.accept(advance("src", "er", 0))

    def test_forwards_with_fabric_timestamps(self):
        component = engine_router()
        self._feed(component, [(1.0, wire())])
        component.step()
        [msg] = component.take_outbox()
        assert msg.time == 1.5  # arrival + channel latency, no service
        assert component.forwarded == 1
        component.close()

    def test_virtual_clock_tracks_batches(self):
        component = engine_router()
        self._feed(component, [(1.0, wire(b"a")), (2.0, wire(b"b"))])
        component.step()
        assert component.virtual_clock() == 2.0
        assert component.clock == 2.0
        component.close()

    def test_exact_and_window_batching_agree_on_stateless_traffic(self):
        frames = [(0.1 * i, wire(bytes([i]))) for i in range(1, 8)]

        def outcomes(batching):
            component = engine_router(
                batching=batching, keep_outcomes=True
            )
            self._feed(component, frames)
            component.step()
            out = [
                (o.decision.value, o.ports, o.packet)
                for o in component.outcomes
            ]
            msgs = [(m.time, m.data) for m in component.take_outbox()]
            component.close()
            return out, msgs

        assert outcomes("exact") == outcomes("window")

    def test_non_dip_frames_dropped_like_a_dip_router(self):
        component = engine_router()
        component.accept(
            Deliver(1.0, "src", "er", 0, KIND_CONTROL, ("m",), 32, 1)
        )
        component.accept(advance("src", "er", 0))
        component.step()
        assert component.non_dip_dropped == 1
        assert component.take_outbox() == []
        component.close()

    def test_unknown_batching_mode_rejected(self):
        with pytest.raises(FabricError, match="batching"):
            EngineRouterComponent(
                "er", lambda: router_state("er"), batching="fuzzy"
            )

    def test_state_readable_for_serial_single_shard(self):
        component = engine_router()
        assert component.state().node_id == "er"
        component.close()


class TestPisaRouterComponent:
    def _component(self, cycle_time=1e-6):
        component = PisaRouterComponent(
            "pr",
            lambda: router_state("pr"),
            cycle_time=cycle_time,
        )
        component.add_input("src", 0, rank=0)
        component.add_output(1, "dst", 0, latency=0.5, rank=1)
        return component

    def test_cycle_cost_becomes_service_latency(self):
        component = self._component(cycle_time=1e-6)
        packet = build_ipv4_packet(DST, SRC)
        cycles = service_cycles(packet, component.cost_model)
        component.accept(
            Deliver(1.0, "src", "pr", 0, KIND_DIP, packet.encode(),
                    packet.size, 1)
        )
        component.accept(advance("src", "pr", 0))
        component.step()
        [msg] = component.take_outbox()
        assert msg.time == pytest.approx((1.0 + cycles * 1e-6) + 0.5)
        assert component.forwarded == 1

    def test_out_of_domain_packet_counted_not_crashed(self):
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        header = build_ipv4_packet(DST, SRC).header
        fns = tuple(header.fns) * 13  # beyond the 12-stage unroll
        overfull = DipPacket(
            header=DipHeader(
                fns=fns, locations=header.locations,
                next_header=header.next_header,
            ),
            payload=b"",
        )
        component = self._component()
        component.accept(
            Deliver(1.0, "src", "pr", 0, KIND_DIP, overfull.encode(),
                    overfull.size, 1)
        )
        component.accept(advance("src", "pr", 0))
        component.step()
        assert component.out_of_domain == 1
        assert component.take_outbox() == []

    def test_undecodable_bytes_quarantined(self):
        component = self._component()
        component.accept(
            Deliver(1.0, "src", "pr", 0, KIND_DIP, b"\xff\xff", 2, 1)
        )
        component.accept(advance("src", "pr", 0))
        component.step()
        assert component.quarantined == 1

    def _counters_after(self, packet):
        component = self._component()
        data = packet.encode()
        component.accept(
            Deliver(1.0, "src", "pr", 0, KIND_DIP, data, len(data), 1)
        )
        component.accept(advance("src", "pr", 0))
        component.step()
        assert component.take_outbox() == []
        counters = component.counters()
        return {
            name: counters[name]
            for name in (
                "forwarded", "delivered", "dropped", "quarantined",
                "out_of_domain",
            )
        }

    def test_field_range_violation_quarantined(self):
        from repro.core.fn import FieldOperation
        from repro.core.header import DipHeader
        from repro.core.packet import DipPacket

        header = build_ipv4_packet(DST, SRC).header
        past_end = FieldOperation(len(header.locations) * 8, 32, 1)
        # Hop limit 0 too: the range check must win, as in the codec.
        packet = DipPacket(
            header=DipHeader(
                fns=header.fns + (past_end,), locations=header.locations,
                hop_limit=0,
            )
        )
        assert self._counters_after(packet) == {
            "forwarded": 0, "delivered": 0, "dropped": 0,
            "quarantined": 1, "out_of_domain": 0,
        }

    def test_hop_limit_zero_dropped(self):
        packet = build_ipv4_packet(DST, SRC)
        expired = DipPacket(packet.header.with_hop_limit(0), packet.payload)
        assert self._counters_after(expired) == {
            "forwarded": 0, "delivered": 0, "dropped": 1,
            "quarantined": 0, "out_of_domain": 0,
        }


class TestNetsimComponent:
    def _island(self):
        component = NetsimComponent("isl")
        topo = component.topology
        router = DipRouterNode(
            "isl-r", topo.engine, trace=topo.trace,
            state=router_state("isl-r", port=1),
        )
        router.state.fib_v4.insert(SRC, 32, 0)
        topo.add(router)
        host = HostNode("isl-h", topo.engine, trace=topo.trace)
        topo.add(host)
        topo.connect(router, 0, host, 0, delay=0.001)
        component.record_host(host)
        component.open_port(0, "isl-r", 1)
        return component, host

    def test_open_port_wires_a_zero_delay_portal(self):
        component, _ = self._island()
        router = component.topology.node("isl-r")
        portal_link = router.ports[1]
        assert portal_link.delay == 0.0

    def test_inbound_deliver_reaches_island_host(self):
        component, host = self._island()
        component.add_input("t", 0, rank=0)
        packet = build_ipv4_packet(SRC, DST)
        component.accept(
            Deliver(1.0, "t", "isl", 0, KIND_DIP, packet.encode(),
                    packet.size, 1)
        )
        component.accept(advance("t", "isl", 0))
        component.step()
        assert len(host.inbox) == 1
        [(when, where, _)] = component.records()
        assert where == "isl-h"
        assert when == pytest.approx(1.001)  # + intra-island link

    def test_island_egress_crosses_the_portal(self):
        component, _ = self._island()
        component.add_output(0, "t", 0, latency=0.25, rank=0)
        component.schedule_send("isl-h", 0.5, build_ipv4_packet(DST, SRC))
        component.step()  # horizon inf: no inputs wired
        [msg] = component.take_outbox()
        # host send 0.5 + host->router 0.001 + portal 0.0 + channel .25
        assert msg.time == pytest.approx(0.751)
        assert msg.kind == KIND_DIP
        assert isinstance(msg.data, bytes)

    def test_undecodable_inbound_counted(self):
        component, _ = self._island()
        component.add_input("t", 0, rank=0)
        component.accept(
            Deliver(1.0, "t", "isl", 0, KIND_DIP, b"\x00garbage", 8, 1)
        )
        component.accept(advance("t", "isl", 0))
        component.step()
        assert component.decode_errors == 1
        # One loss counter per lost frame: the boundary router walks the
        # wire and counts the codec error, not a drop as well.
        counters = component.counters()
        assert sum(counters[name] for name in FABRIC_LOSSES
                   if name in counters) == 1

    def test_host_boundary_receives_a_decoded_packet(self):
        component = NetsimComponent("hisl")
        host = HostNode("hisl-h", component.topology.engine,
                        trace=component.topology.trace)
        component.topology.add(host)
        component.open_port(0, "hisl-h", 0)
        component.add_input("t", 0, rank=0)
        packet = build_ipv4_packet(SRC, DST, payload=b"to-host")
        component.accept(
            Deliver(1.0, "t", "hisl", 0, KIND_DIP, packet.encode(),
                    packet.size, 1)
        )
        component.accept(
            Deliver(2.0, "t", "hisl", 0, KIND_DIP, b"\x00garbage", 8, 2)
        )
        component.accept(advance("t", "hisl", 0))
        component.step()
        [(received, result)] = host.inbox
        assert isinstance(received, DipPacket)
        assert received == packet
        assert result.accepted
        assert component.decode_errors == 1

    def test_counters_aggregate_island_stats(self):
        component, host = self._island()
        component.add_input("t", 0, rank=0)
        packet = build_ipv4_packet(SRC, DST)
        component.accept(
            Deliver(1.0, "t", "isl", 0, KIND_DIP, packet.encode(),
                    packet.size, 1)
        )
        component.accept(advance("t", "isl", 0))
        component.step()
        counters = component.counters()
        assert counters["delivered"] == 1
        assert counters["forwarded"] == 1  # the island router hop
        assert counters["sim_events"] > 0

    def test_record_host_refuses_double_wiring(self):
        component, host = self._island()
        with pytest.raises(FabricError, match="already has an app"):
            component.record_host(host)


class TestTwoIslandConservation:
    def test_injected_equals_delivered_across_fabric(self):
        def make_island(name, local, remote):
            def build():
                component = NetsimComponent(name)
                topo = component.topology
                state = NodeState(node_id=f"{name}-r")
                state.fib_v4.insert(local, 32, 0)
                state.fib_v4.insert(remote & 0xFFFF0000, 16, 1)
                router = DipRouterNode(
                    f"{name}-r", topo.engine, trace=topo.trace, state=state
                )
                topo.add(router)
                host = HostNode(f"{name}-h", topo.engine, trace=topo.trace)
                topo.add(host)
                topo.connect(router, 0, host, 0, delay=0.001)
                component.record_host(host)
                component.open_port(0, f"{name}-r", 1)
                for k in range(10):
                    component.schedule_send(
                        f"{name}-h",
                        0.01 * (k + 1),
                        build_ipv4_packet(remote, local,
                                          payload=bytes([k])),
                    )
                return component

            return build

        a_addr, b_addr = 0x0A010001, 0x0A020001
        run = FabricRun(
            {
                "ia": make_island("ia", a_addr, b_addr),
                "ib": make_island("ib", b_addr, a_addr),
            },
            duplex("ia", 0, "ib", 0, 0.005),
        )
        report = run.run()
        counters = {
            name: r["counters"] for name, r in report.components.items()
        }
        assert counters["ia"]["injected"] == 10
        assert counters["ib"]["injected"] == 10
        assert counters["ia"]["delivered"] == 10
        assert counters["ib"]["delivered"] == 10
        assert counters["ia"]["link_drops"] == 0
        assert len(report.records) == 20
