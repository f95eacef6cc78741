"""Tests for the CSFQ / dynamic-packet-state substrate."""

import pytest

from repro.errors import HeaderValueError
from repro.protocols.dps.csfq import (
    CsfqCore,
    EdgeRateEstimator,
    decode_rate_label,
    encode_rate_label,
)


class TestRateLabel:
    def test_roundtrip(self):
        assert decode_rate_label(encode_rate_label(1000.0)) == pytest.approx(
            1000.0, rel=0.01
        )

    def test_saturates_at_max(self):
        assert encode_rate_label(1e12) == (1 << 32) - 1

    def test_negative_rejected(self):
        with pytest.raises(HeaderValueError):
            encode_rate_label(-1.0)
        with pytest.raises(HeaderValueError):
            decode_rate_label(-1)
        with pytest.raises(HeaderValueError):
            decode_rate_label(1 << 32)


class TestEdgeRateEstimator:
    def test_converges_to_steady_rate(self):
        edge = EdgeRateEstimator(window=0.1)
        now = 0.0
        rate = 0.0
        for _ in range(500):
            now += 0.01  # 1000 bytes per 10 ms = 100 kB/s
            rate = edge.observe(1, 1000, now)
        assert rate == pytest.approx(100_000, rel=0.05)

    def test_tracks_rate_change(self):
        edge = EdgeRateEstimator(window=0.05)
        now = 0.0
        for _ in range(200):
            now += 0.01
            edge.observe(1, 1000, now)
        for _ in range(200):
            now += 0.01  # halve the packet size -> halve the rate
            rate = edge.observe(1, 500, now)
        assert rate == pytest.approx(50_000, rel=0.05)

    def test_flows_independent(self):
        edge = EdgeRateEstimator()
        now = 0.0
        for _ in range(100):
            now += 0.01
            edge.observe(1, 1000, now)
            edge.observe(2, 100, now)
        assert edge.rate_of(1) > 5 * edge.rate_of(2)
        assert edge.rate_of(99) == 0.0


class TestCsfqCore:
    def drive(self, core, flows, iterations=4000, tick=0.0005):
        """flows: {flow_id: (every_n_ticks, size)}; returns fwd counts."""
        forwarded = {flow: 0 for flow in flows}
        sent = {flow: 0 for flow in flows}
        edge = EdgeRateEstimator()
        now = 0.0
        for i in range(iterations):
            now += tick
            for flow, (period, size) in flows.items():
                if i % period:
                    continue
                sent[flow] += 1
                rate = edge.observe(flow, size, now)
                if core.process(encode_rate_label(rate), size, now):
                    forwarded[flow] += 1
        return sent, forwarded

    def test_uncongested_link_never_drops(self):
        core = CsfqCore(capacity=1e9)
        sent, forwarded = self.drive(core, {1: (1, 500)})
        assert forwarded[1] == sent[1]

    def test_congested_link_drops(self):
        core = CsfqCore(capacity=50_000)  # offered ~1 MB/s
        sent, forwarded = self.drive(core, {1: (1, 500)})
        assert forwarded[1] < 0.5 * sent[1]

    def test_fair_share_protects_conformant_flow(self):
        """The low-rate flow keeps a larger fraction than the hog."""
        core = CsfqCore(capacity=100_000)
        sent, forwarded = self.drive(core, {1: (5, 500), 2: (1, 500)})
        fraction_1 = forwarded[1] / sent[1]
        fraction_2 = forwarded[2] / sent[2]
        assert fraction_1 > 2 * fraction_2

    def test_absolute_throughput_roughly_equalized(self):
        """CSFQ's goal: both flows forward ~alpha bytes/second."""
        core = CsfqCore(capacity=100_000)
        sent, forwarded = self.drive(
            core, {1: (2, 500), 2: (1, 1000)}, iterations=8000
        )
        bytes_1 = forwarded[1] * 500
        bytes_2 = forwarded[2] * 1000
        ratio = max(bytes_1, bytes_2) / max(1, min(bytes_1, bytes_2))
        assert ratio < 2.5  # near-equal shares despite 4x offered gap

    def test_deterministic_mode_reproducible(self):
        runs = []
        for _ in range(2):
            core = CsfqCore(capacity=50_000, deterministic=True)
            runs.append(self.drive(core, {1: (1, 500)}, iterations=1000))
        assert runs[0] == runs[1]

    def test_zero_rate_label_never_dropped(self):
        core = CsfqCore(capacity=10.0)
        # saturate the link first
        for i in range(100):
            core.process(encode_rate_label(10_000), 500, now=i * 0.001)
        assert core.process(0, 10, now=1.0)  # label 0 -> p = 0
