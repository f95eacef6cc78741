#!/usr/bin/env python
"""NetFence-over-DIP: in-network congestion policing against a flooder.

The paper's introduction motivates DIP with exactly this class of
innovation: NetFence "emulate[s] congestion control (AIMD) inside the
network to mitigate DDoS attacks" with a MAC-protected tag between L3
and L4.  Realized as FNs (keys 14/15 in this prototype):

    [F_police | F_32_match | F_source | F_cong]  + 256-bit tag field

Topology::

    good-host --\\
                 access === bottleneck --- server
    flooder ----/

- the bottleneck stamps CONGESTED into each packet's tag (MAC'd);
- hosts echo the verified feedback; the access router runs AIMD per
  sender and polices with a token bucket;
- the flooder ignores congestion and keeps blasting: its packets die at
  ITS OWN access router.  The good (AIMD-obeying) sender keeps its
  share.
"""

from repro.netsim import DipRouterNode, HostNode, Topology
from repro.protocols.ip.addresses import parse_ipv4
from repro.protocols.netfence.monitor import CongestionMonitor
from repro.protocols.netfence.policer import AimdPolicer
from repro.realize.netfence import build_netfence_packet, extract_congestion_tag

SERVER = parse_ipv4("10.0.0.80")
GOOD, FLOOD = 1, 2
PACKET = b"x" * 900
DURATION = 2.0


def main() -> None:
    topo = Topology()
    good = topo.add(HostNode("good-host", topo.engine, topo.trace))
    flooder = topo.add(HostNode("flooder", topo.engine, topo.trace))
    access = topo.add(DipRouterNode("access", topo.engine, topo.trace))
    bottleneck = topo.add(DipRouterNode("bottleneck", topo.engine, topo.trace))
    server = topo.add(HostNode("server", topo.engine, topo.trace))

    topo.connect("good-host", 0, "access", 1)
    topo.connect("flooder", 0, "access", 2)
    topo.connect("access", 3, "bottleneck", 1)
    topo.connect("bottleneck", 2, "server", 0)

    access.state.policer = AimdPolicer(
        initial_rate=40_000, feedback_interval=0.05
    )
    access.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 3)
    # the bottleneck decides CONGESTED/NORMAL from its own arrival rate
    bottleneck.state.local_congestion = CongestionMonitor(capacity=100_000)
    bottleneck.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 2)

    # The good host sends at a modest pace and echoes feedback (AIMD-
    # obedient); the flooder sends 10x faster and echoes nothing.
    state = {"good_tag": None}

    def good_send():
        pkt = build_netfence_packet(
            SERVER, parse_ipv4("172.16.0.1"), sender_id=GOOD,
            payload=PACKET, echoed_tag=state["good_tag"],
        )
        good.send_packet(pkt)

    def flood_send():
        flooder.send_packet(
            build_netfence_packet(
                SERVER, parse_ipv4("172.16.0.2"), sender_id=FLOOD,
                payload=PACKET,
            ),
            port=0,
        )

    tick = 0.0
    while tick < DURATION:
        topo.engine.schedule(tick, good_send)
        tick += 0.025  # ~36 kB/s offered, inside the allowance
    tick = 0.0
    while tick < DURATION:
        topo.engine.schedule(tick, flood_send)
        tick += 0.0025  # ~360 kB/s offered, 10x over

    # The good host learns feedback from delivered responses: in this
    # one-way demo we read it off the server's inbox periodically.
    def refresh_feedback():
        if server.inbox:
            tag = extract_congestion_tag(server.inbox[-1][0].header)
            if tag.sender_id == GOOD:
                state["good_tag"] = tag
        if topo.engine.now < DURATION:
            topo.engine.schedule(0.05, refresh_feedback)

    topo.engine.schedule(0.05, refresh_feedback)
    topo.run()

    received = {GOOD: 0, FLOOD: 0}
    for packet, _result in server.inbox:
        received[extract_congestion_tag(packet.header).sender_id] += 1

    print(f"access router dropped {access.stats.dropped} packets")
    print(f"server received: good={received[GOOD]}  flood={received[FLOOD]}")
    print(f"good sender's final allowance: "
          f"{access.state.policer.rate_of(GOOD):.0f} B/s "
          f"(AIMD-adjusted)")
    good_sent = int(DURATION / 0.025)
    flood_sent = int(DURATION / 0.0025)
    good_rate = received[GOOD] / good_sent
    flood_rate = received[FLOOD] / flood_sent
    print(f"delivery fraction: good {good_rate:.0%} vs flood {flood_rate:.0%}")
    assert good_rate > 2 * flood_rate
    assert access.stats.dropped > flood_sent * 0.5
    print("\nddos mitigation scenario checks passed")


if __name__ == "__main__":
    main()
