"""Tests for the wire-level FN discovery (Section 2.3 bootstrap)."""

import pytest

from repro.core.fn import OperationKey
from repro.core.registry import default_registry
from repro.errors import UnknownOperationError
from repro.netsim import DipRouterNode, HostNode, Topology
from repro.netsim.bootstrap import bootstrap_host_async
from repro.realize.ndn import build_interest_packet


class TestWireLevelBootstrap:
    def test_host_learns_over_control_frames(self):
        topo = Topology()
        host = topo.add(HostNode("h", topo.engine, topo.trace))
        registry = default_registry().restricted({1, 3, 4, 5})
        router = topo.add(
            DipRouterNode("r", topo.engine, topo.trace, registry=registry)
        )
        topo.connect("h", 0, "r", 1)
        host.stack.learn_available_fns(set())  # nothing allowed yet
        with pytest.raises(UnknownOperationError):
            host.send_packet(build_interest_packet(1))

        bootstrap_host_async(host)
        topo.run()
        assert host.stack.available_fns == {1, 3, 4, 5}
        router.state.name_fib_digest.insert(0, 0, 1)
        host.send_packet(build_interest_packet(1))  # now constructible

    def test_discovery_answered_not_flooded(self):
        topo = Topology()
        host = topo.add(HostNode("h", topo.engine, topo.trace))
        r1 = topo.add(DipRouterNode("r1", topo.engine, topo.trace))
        r2 = topo.add(DipRouterNode("r2", topo.engine, topo.trace))
        topo.connect("h", 0, "r1", 1)
        topo.connect("r1", 2, "r2", 1)
        bootstrap_host_async(host)
        topo.run()
        # r2 never saw the request; the reply came from r1
        assert r2.stats.received == 0
        assert OperationKey.MAC in host.stack.available_fns
        assert any(
            "r1" in event.detail
            for event in topo.trace.of_kind("bootstrap")
        )
