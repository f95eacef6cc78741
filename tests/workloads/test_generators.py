"""Tests for the benchmark workload generators."""

import pytest

from repro.core.processor import Decision
from repro.dataplane.costs import CycleCostModel
from repro.errors import SimulationError
from repro.workloads.generators import (
    FIGURE2_SIZES,
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
    make_native_ipv4_workload,
    make_native_ipv6_workload,
    make_ndn_interest_workload,
    make_ndn_opt_workload,
    make_opt_workload,
    make_xia_workload,
)


def assert_all_forward(workload):
    for packet in workload.packets:
        assert workload.process(packet).decision is Decision.FORWARD


DIP_MAKERS = [
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
    make_ndn_interest_workload,
    make_opt_workload,
    make_ndn_opt_workload,
    make_xia_workload,
]


class TestNativeBaselines:
    @pytest.mark.parametrize(
        "maker", [make_native_ipv4_workload, make_native_ipv6_workload]
    )
    def test_all_packets_forward(self, maker):
        workload = maker(packet_size=128, packet_count=30)
        for packet in workload.packets:
            result = workload.process(packet)
            assert not result.dropped, result.reason

    def test_packet_sizes_exact(self):
        for size in FIGURE2_SIZES:
            workload = make_native_ipv4_workload(
                packet_size=size, packet_count=5
            )
            assert all(len(p) == size for p in workload.packets)

    def test_deterministic_by_seed(self):
        a = make_native_ipv4_workload(packet_count=10, seed=3)
        b = make_native_ipv4_workload(packet_count=10, seed=3)
        assert a.packets == b.packets
        c = make_native_ipv4_workload(packet_count=10, seed=4)
        assert a.packets != c.packets


class TestDipWorkloads:
    @pytest.mark.parametrize("maker", DIP_MAKERS)
    def test_all_forward_two_rounds(self, maker):
        """Every packet forwards, including on benchmark repetitions."""
        workload = maker(packet_size=128, packet_count=20)
        assert_all_forward(workload)
        assert_all_forward(workload)

    @pytest.mark.parametrize("maker", DIP_MAKERS)
    def test_exact_packet_sizes(self, maker):
        workload = maker(packet_size=768, packet_count=5)
        assert all(p.size == 768 for p in workload.packets)

    def test_too_small_packet_size_rejected(self):
        with pytest.raises(SimulationError):
            make_opt_workload(packet_size=64, packet_count=2)

    def test_cycles_precomputed_with_model(self):
        workload = make_dip_ipv4_workload(
            packet_count=5, cost_model=CycleCostModel()
        )
        assert len(workload.cycles) == 5
        assert workload.mean_cycles() > 0

    def test_cycles_absent_without_model(self):
        workload = make_dip_ipv4_workload(packet_count=5)
        with pytest.raises(SimulationError):
            workload.mean_cycles()

    def test_opt_backend_parameter(self):
        aes = make_opt_workload(packet_count=3, backend="aes")
        assert_all_forward(aes)
        assert "aes" in aes.name

    def test_parallel_flag_set(self):
        workload = make_opt_workload(packet_count=3, parallel=True)
        assert all(p.header.parallel for p in workload.packets)

    def test_figure2_ordering_on_cycles(self):
        model = CycleCostModel()
        means = {}
        for maker in (
            make_dip_ipv4_workload,
            make_ndn_interest_workload,
            make_opt_workload,
            make_ndn_opt_workload,
        ):
            workload = maker(packet_count=10, cost_model=model)
            means[workload.name] = workload.mean_cycles()
        assert means["DIP-IPv4"] < means["NDN"]
        assert means["NDN"] < means["OPT"]
        assert means["OPT"] < means["NDN+OPT"]
