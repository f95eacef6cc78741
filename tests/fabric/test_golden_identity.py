"""The golden scenario identity: fabric == monolithic twin.

The acceptance oracle for the whole fabric: a seeded 10-AS internet
with engine-backed and PISA-backed transits plus netsim stub islands
produces *identical* per-packet delivery records -- same virtual
times, same hosts, same payload digests -- whether composed over the
fabric (any process count, any scheduler order) or simulated
monolithically in netsim.  ``repro paper FABRIC`` checks the same
identity at 2,000 packets, in one process and in two.
"""

import pytest

from repro.errors import FabricError
from repro.fabric import GoldenSpec, golden_fabric, golden_netsim
from repro.telemetry.metrics import MetricsRegistry

SPEC = GoldenSpec(seed=11, ases=10, hosts_per_as=2, packets=600)


@pytest.fixture(scope="module")
def twin():
    return golden_netsim(SPEC)


@pytest.fixture(scope="module")
def fabric_report():
    return golden_fabric(SPEC).run()


class TestGoldenIdentity:
    def test_every_packet_delivered(self, fabric_report):
        assert len(fabric_report.records) == SPEC.packets

    def test_records_identical_to_twin(self, fabric_report, twin):
        assert fabric_report.records == twin["records"]
        assert fabric_report.fingerprint == twin["fingerprint"]

    def test_conservation(self, fabric_report):
        counters = {
            name: r["counters"]
            for name, r in fabric_report.components.items()
        }
        injected = sum(
            c.get("injected", 0) for c in counters.values()
        )
        delivered = sum(
            c.get("delivered", 0) for c in counters.values()
        )
        assert injected == SPEC.packets
        assert delivered == SPEC.packets
        assert all(c.get("link_drops", 0) == 0 for c in counters.values())
        assert all(c["tx_errors"] == 0 for c in counters.values())

    def test_transits_actually_carried_traffic(self, fabric_report):
        t0 = fabric_report.components["t0"]["counters"]
        t1 = fabric_report.components["t1"]["counters"]
        assert t0["forwarded"] > 0, "engine transit idle"
        assert t1["forwarded"] > 0, "PISA transit idle"
        assert t0["dropped"] == 0 and t1["dropped"] == 0

    def test_clock_skew_bounded_by_scenario_span(self, fabric_report):
        # Components halt close together: within one lookahead cascade
        # of each other, far below the scenario's virtual span.
        assert 0.0 <= fabric_report.clock_skew < 1.0


class TestSchedulerIndependence:
    @pytest.mark.parametrize("seed", [1, 99, 31337])
    def test_shuffled_scheduler_is_invisible(self, seed, fabric_report):
        shuffled = golden_fabric(SPEC, scheduler_seed=seed).run()
        assert shuffled.records == fabric_report.records
        assert shuffled.fingerprint == fabric_report.fingerprint


class TestSchedule:
    def test_traffic_is_generated_once_per_run(self, monkeypatch):
        from repro.fabric import scenario

        calls = []
        generate = scenario.golden_traffic

        def counting(spec):
            calls.append(spec)
            return generate(spec)

        monkeypatch.setattr(scenario, "golden_traffic", counting)
        spec = GoldenSpec(seed=4, ases=10, hosts_per_as=1, packets=30)
        report = golden_fabric(spec).run()
        assert len(report.records) == spec.packets
        assert calls == [spec]


class TestPerProgramWork:
    def test_codec_and_parse_graph_run_once_per_program(self, monkeypatch):
        from collections import Counter

        from repro.core.packet import DipPacket
        from repro.dataplane.parser import Parser
        from repro.dataplane.phv import PacketHeaderVector

        calls = Counter()
        decode = DipPacket.decode.__func__
        parse = Parser.parse
        allocate = PacketHeaderVector.allocate

        def counting_decode(cls, data):
            calls["decode"] += 1
            return decode(cls, data)

        def counting_parse(self, packet):
            calls["parse"] += 1
            return parse(self, packet)

        def counting_allocate(self, name, width, value=0):
            calls["allocate"] += 1
            return allocate(self, name, width, value)

        monkeypatch.setattr(DipPacket, "decode", classmethod(counting_decode))
        monkeypatch.setattr(Parser, "parse", counting_parse)
        monkeypatch.setattr(PacketHeaderVector, "allocate", counting_allocate)
        report = golden_fabric(SPEC).run()
        assert len(report.records) == SPEC.packets
        # Golden traffic is one IPv4 FN program: stub routers walk the
        # wire the fabric hands them, the PISA transit walks its parse
        # graph for the first frame only (basic header + two FN states
        # = 10 PHV fields), and the engine transit decodes only on
        # first sight of the program.
        assert calls == {"decode": 1, "parse": 1, "allocate": 10}
        t1 = report.components["t1"]["counters"]
        assert t1["parse_graph_walks"] == 1


class TestMultiprocess:
    @pytest.mark.parametrize("processes", [2, 3])
    def test_process_placement_is_invisible(self, processes, fabric_report):
        spec = GoldenSpec(seed=5, ases=6, hosts_per_as=1, packets=80)
        local = golden_fabric(spec).run()
        multi = golden_fabric(spec, processes=processes).run()
        # Placement is invisible in the whole report, not only the
        # records: same rounds, message counts, clocks and components.
        assert multi.records == local.records
        assert multi.fingerprint == local.fingerprint
        assert multi.rounds == local.rounds
        assert multi.counters == local.counters
        assert multi.clocks == local.clocks
        assert multi.components == local.components
        assert multi.processes == processes

    def test_two_process_golden_matches_twin(self):
        spec = GoldenSpec(seed=23, ases=10, hosts_per_as=2, packets=120)
        multi = golden_fabric(spec, processes=2).run()
        twin = golden_netsim(spec)
        assert multi.records == twin["records"]


class TestTelemetry:
    def test_registry_publishes_fabric_metrics(self):
        spec = GoldenSpec(seed=3, ases=4, hosts_per_as=1, packets=10)
        registry = MetricsRegistry()
        golden_fabric(spec, registry=registry).run()
        snapshot = registry.snapshot()
        counters = snapshot.counters
        assert counters['fabric_messages_total{type="delivers"}'] > 0
        assert counters['fabric_messages_total{type="advances"}'] > 0
        assert counters["fabric_rounds_total"] > 0
        gauges = snapshot.gauges
        assert 'fabric_component_clock_seconds{component="t0"}' in gauges
        assert "fabric_clock_skew_seconds" in gauges


class TestSpecValidation:
    def test_too_few_ases_rejected(self):
        with pytest.raises(FabricError):
            GoldenSpec(ases=3)

    def test_zero_hosts_rejected(self):
        with pytest.raises(FabricError):
            GoldenSpec(hosts_per_as=0)
