#!/usr/bin/env python
"""An internet-scale DIP rollout (Sections 2.3 + 2.4).

Generates a seeded multi-AS topology -- transit clique, regional
providers, multihomed stubs, IXPs -- with only half the ASes running
DIP, then shows the deployment machinery end to end:

1. every host in a DIP AS *bootstraps* its own AS's FN profile
   (DHCP-like, over real control frames);
2. a source checks the AS-level CapabilityMap before relying on a
   path-critical FN;
3. a packet crosses the DIP overlay on native links host-to-host;
4. another packet reaches a DIP island only via a DIP-in-IPv4 tunnel
   through a best-effort-IP legacy core -- and still arrives as DIP.

The adoption sweep over a 208-AS internet is ``repro paper ADOPT``.
"""

from repro.netsim.internet import (
    PROFILES,
    InternetGenerator,
    NetworkSpec,
)
from repro.realize.ip import build_ipv4_packet

SPEC = NetworkSpec(
    seed=3, transit=2, regional=8, stub=30, ix_count=2, adoption=0.5
)


def send(net, src_asn, dst_asn):
    src, dst = net.hosts[src_asn][0], net.hosts[dst_asn][0]
    plan = net.plan
    packet = build_ipv4_packet(
        plan.by_asn[dst_asn].host_address(0),
        plan.by_asn[src_asn].host_address(0),
    )
    before = len(dst.inbox)
    assert src.send_packet(packet, port=0)
    net.topology.run()
    return len(dst.inbox) - before


def main() -> None:
    net = InternetGenerator(SPEC).build()
    summary = net.summary()
    print(f"generated {summary['ases']} ASes "
          f"({summary['dip_ases']} DIP / {summary['legacy_ases']} legacy), "
          f"{summary['links']} links, {summary['tunnels_placed']} tunnels, "
          f"{summary['ixps']} IXPs")

    # 1. DHCP-like bootstrap: every DIP-AS host learns its FN profile.
    bootstrapped = net.bootstrap_hosts()
    print(f"bootstrapped {bootstrapped} hosts; each learned exactly its "
          f"AS's profile")

    # Pick a direct overlay flow and a tunnel-crossing flow.
    plan = net.plan
    stubs = [a for a in plan.ases if a.role == "stub" and a.dip and a.hosts]
    direct = tunneled = None
    for i, a in enumerate(stubs):
        for b in stubs[i + 1:]:
            path = plan.overlay_path(a.asn, b.asn)
            if path is None:
                continue
            _, legacy = plan.path_hop_breakdown(path)
            if legacy and tunneled is None:
                tunneled = (a.asn, b.asn, path, legacy)
            elif not legacy and direct is None:
                direct = (a.asn, b.asn, path)
        if direct and tunneled:
            break

    # 2. capability check before sending (BGP-community style map).
    src, dst, path = direct
    as_ids = [plan.by_asn[asn].as_id for asn in path]
    common = net.capabilities.supported_on_path(as_ids)
    print(f"path {' -> '.join(as_ids)} supports "
          f"{len(common)} FN keys end to end")

    # 3. native DIP delivery across the overlay.
    assert send(net, src, dst) == 1
    print(f"delivered AS{src} -> AS{dst} over native DIP links "
          f"({len(path)} AS hops)")

    # 4. delivery through a DIP-in-IPv4 tunnel across a legacy core.
    src, dst, path, legacy = tunneled
    assert send(net, src, dst) == 1
    print(f"delivered AS{src} -> AS{dst} through {legacy} tunneled legacy "
          f"hop(s) -- the island is reachable before its neighbors deploy")

    print(f"\nprofiles in play: {sorted(PROFILES)}")
    print("internet adoption scenario checks passed")


if __name__ == "__main__":
    main()
