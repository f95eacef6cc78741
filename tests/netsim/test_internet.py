"""The internet layer: generated AS/IX graphs, adoption, tunnels.

Covers the tentpole plus the satellite requirement: bootstrap and
neighbor-label behaviour on *generated* multi-AS topologies, not just
hand-built lines.
"""

import json

import pytest

from repro.errors import SimulationError
from repro.netsim import LegacyRouterNode
from repro.netsim.internet import (
    PROFILES,
    InternetGenerator,
    NetworkSpec,
    ProfileRegistryFactory,
    profile_registry,
    tunnel_endpoint_v4,
)
from repro.realize.ip import build_ipv4_packet

SPEC = NetworkSpec(
    seed=3, transit=2, regional=8, stub=30, ix_count=2, adoption=0.5
)


@pytest.fixture(scope="module")
def plan():
    return InternetGenerator(SPEC).plan()


@pytest.fixture(scope="module")
def net():
    return InternetGenerator(SPEC).build()


class TestSpec:
    def test_validation(self):
        with pytest.raises(SimulationError):
            NetworkSpec(transit=0)
        with pytest.raises(SimulationError):
            NetworkSpec(adoption=1.5)
        with pytest.raises(SimulationError):
            NetworkSpec(ix_count=-1)
        with pytest.raises(SimulationError):
            NetworkSpec(hosts_per_stub=-1)
        with pytest.raises(SimulationError):
            NetworkSpec(profile_mix=(("nope", 1),))

    def test_round_trip(self):
        spec = NetworkSpec(seed=9, stub=5)
        assert NetworkSpec.from_dict(spec.to_dict()) == spec


class TestPlanDeterminism:
    def test_fingerprint_stable(self, plan):
        again = InternetGenerator(SPEC).plan()
        assert plan.fingerprint() == again.fingerprint()
        assert json.dumps(plan.to_dict(), sort_keys=True) == json.dumps(
            again.to_dict(), sort_keys=True
        )

    def test_different_seed_differs(self, plan):
        other = InternetGenerator(
            NetworkSpec(seed=4, transit=2, regional=8, stub=30, ix_count=2)
        ).plan()
        assert other.fingerprint() != plan.fingerprint()

    def test_staged_adoption_nests(self, plan):
        lower = InternetGenerator(
            NetworkSpec(
                seed=3, transit=2, regional=8, stub=30, ix_count=2,
                adoption=0.2,
            )
        ).plan()
        assert set(lower.dip_asns) <= set(plan.dip_asns)
        # The physical graph never changes with adoption.
        assert lower.edges == plan.edges
        assert lower.ixps == plan.ixps
        # Profiles are pre-assigned, stable across fractions.
        for autonomous in lower.ases:
            assert (
                autonomous.profile == plan.by_asn[autonomous.asn].profile
            )

    def test_structure(self, plan):
        assert len(plan.ases) == SPEC.total_ases
        assert len(plan.ixps) == 2
        assert all(a.hosts == 2 for a in plan.ases if a.role == "stub")
        roles = {a.role for a in plan.ases}
        assert roles == {"transit", "regional", "stub"}

    def test_tunnels_bridge_legacy_components(self, plan):
        dip = set(plan.dip_asns)
        for tunnel in plan.tunnels:
            assert tunnel.spoke in dip and tunnel.hub in dip
            assert tunnel.via  # at least one legacy AS underneath
            assert all(asn not in dip for asn in tunnel.via)


class TestProfiles:
    def test_all_profiles_support_dip32(self):
        for name, keys in PROFILES.items():
            assert {1, 3} <= set(keys), name

    def test_profile_registry_restricts(self):
        registry = profile_registry("core")
        assert set(registry.supported_keys()) == set(PROFILES["core"])
        with pytest.raises(SimulationError):
            profile_registry("bogus")

    def test_factory_is_picklable(self):
        import pickle

        factory = pickle.loads(pickle.dumps(ProfileRegistryFactory("secure")))
        assert set(factory().supported_keys()) == set(PROFILES["secure"])


class TestMaterialization:
    def test_capability_map_keyed_by_as(self, net):
        for autonomous in net.plan.ases:
            if not autonomous.dip:
                continue
            caps = net.capabilities.capabilities_of(autonomous.as_id)
            assert caps == set(PROFILES[autonomous.profile])
            # Router ids resolve through membership to the same set.
            router = net.routers[autonomous.asn]
            assert net.capabilities.capabilities_of(router.node_id) == caps

    def test_bootstrap_every_host_learns_its_as_fn_set(self, net):
        bootstrapped = net.bootstrap_hosts()
        dip_hosts = 0
        for asn, hosts in net.hosts.items():
            autonomous = net.plan.by_asn[asn]
            for host in hosts:
                if autonomous.dip:
                    dip_hosts += 1
                    assert host.stack.available_fns == set(
                        PROFILES[autonomous.profile]
                    ), (asn, autonomous.profile)
                else:
                    # Legacy access routers never answer discovery.
                    assert host.stack.available_fns is None
        assert bootstrapped == dip_hosts > 0

    def test_neighbor_labels_cross_as_boundaries(self, net):
        checked = 0
        for a, b, _kind in net.plan.edges:
            ra, rb = net.routers[a], net.routers[b]
            if isinstance(ra, LegacyRouterNode):
                continue
            port = net._ports[(a, b)]
            assert ra.state.neighbor_labels[port] == rb.node_id
            checked += 1
        assert checked > 0

    def test_neighbor_labels_on_tunnel_ports(self, net):
        # Dedicated tunnel ports face the legacy entry AS.
        some = 0
        for tunnel in net.plan.tunnels:
            spoke = net.routers[tunnel.spoke]
            port = net._tunnel_egress[(tunnel.spoke, tunnel.hub)]
            assert (
                spoke.state.neighbor_labels[port]
                == net.routers[tunnel.via[0]].node_id
            )
            some += 1
        assert some > 0

    def test_capability_path_query_over_as_path(self, net):
        plan = net.plan
        dip_stubs = [
            a.asn for a in plan.ases if a.role == "stub" and a.dip
        ]
        found = False
        for src in dip_stubs:
            for dst in dip_stubs:
                if src >= dst:
                    continue
                path = net.as_path(src, dst)
                if path is None:
                    continue
                as_ids = [plan.by_asn[asn].as_id for asn in path]
                router_ids = [net.routers[asn].node_id for asn in path]
                common = net.capabilities.supported_on_path(as_ids)
                assert common == net.capabilities.supported_on_path(
                    router_ids
                )
                assert {1, 3} <= common
                found = True
                break
            if found:
                break
        assert found


class TestEndToEnd:
    def _deliver(self, net, src_asn, dst_asn):
        src_host = net.hosts[src_asn][0]
        dst_host = net.hosts[dst_asn][0]
        packet = build_ipv4_packet(
            net.plan.by_asn[dst_asn].host_address(0),
            net.plan.by_asn[src_asn].host_address(0),
        )
        before = len(dst_host.inbox)
        src_host.stack.learn_available_fns(
            set(PROFILES[net.plan.by_asn[src_asn].profile])
        )
        assert src_host.send_packet(packet, port=0)
        net.topology.run()
        return len(dst_host.inbox) - before

    def _flow_pairs(self, net):
        plan = net.plan
        dip_stubs = [
            a for a in plan.ases if a.role == "stub" and a.dip and a.hosts
        ]
        direct = tunneled = None
        for i, src in enumerate(dip_stubs):
            for dst in dip_stubs[i + 1:]:
                path = plan.overlay_path(src.asn, dst.asn)
                if path is None:
                    continue
                _, legacy_hops = plan.path_hop_breakdown(path)
                if legacy_hops and tunneled is None:
                    tunneled = (src.asn, dst.asn)
                elif not legacy_hops and direct is None:
                    direct = (src.asn, dst.asn)
                if direct and tunneled:
                    return direct, tunneled
        return direct, tunneled

    def test_delivery_direct_and_through_tunnels(self, net):
        direct, tunneled = self._flow_pairs(net)
        assert direct is not None, "seed produced no direct DIP path"
        assert tunneled is not None, "seed produced no tunneled path"
        assert self._deliver(net, *direct) == 1
        # The tunneled flow crosses a best-effort-IP core encapsulated
        # in IPv4 (Section 2.4) and still arrives as DIP.
        assert self._deliver(net, *tunneled) == 1

    def test_unreachable_when_endpoint_legacy(self, net):
        plan = net.plan
        legacy_stub = next(
            a for a in plan.ases if a.role == "stub" and not a.dip
        )
        dip_stub = next(
            a for a in plan.ases if a.role == "stub" and a.dip
        )
        assert net.as_path(legacy_stub.asn, dip_stub.asn) is None

    def test_tunnel_addresses_reserved(self):
        assert tunnel_endpoint_v4(7) == 0xFFFF0000 | 7
