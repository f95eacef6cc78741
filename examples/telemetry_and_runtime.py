#!/usr/bin/env python
"""In-band telemetry + runtime FN deployment (Section 5 opportunities).

Two of the paper's "opportunities with DIP" in one scenario:

1. **efficient network telemetry** -- any packet can carry an INT-style
   telemetry array (F_tel_array, key 19): participating routers write
   their identity and timestamp into pre-allocated slots, and the
   receiver reads the actual path taken off the packet;
2. **upgrading FNs instead of replacing hardware** -- the middle router
   initially does NOT have the telemetry module.  The operator installs
   it at runtime with a ``RegistryMutation`` -- the same declarative
   edit the serving daemon's ``/reconfig`` applies -- and the very next
   packet shows the previously-invisible hop.  Dropping the key again
   rolls the upgrade back.

Topology::   sender --- edge --- core --- exit --- receiver
"""

from repro.core.operations.telemetry import (
    node_digest32,
    read_telemetry_array,
)
from repro.core.registry import RegistryMutation, default_registry
from repro.core.fn import OperationKey
from repro.netsim import DipRouterNode, HostNode, Topology
from repro.protocols.ip.addresses import parse_ipv4
from repro.realize.extensions import with_telemetry_array
from repro.realize.ip import build_ipv4_header
from repro.core.packet import DipPacket

RECEIVER = parse_ipv4("10.0.0.9")
NAMES = {node_digest32(n): n for n in ("edge", "core", "exit")}


def send_probe(sender):
    header = with_telemetry_array(
        build_ipv4_header(RECEIVER, parse_ipv4("172.16.0.1")), slots=4
    )
    sender.send_packet(DipPacket(header=header, payload=b"probe"))


def path_of(packet) -> list:
    records = read_telemetry_array(packet.header.locations[8:])
    return [NAMES.get(digest, hex(digest)) for digest, _ in records]


def main() -> None:
    topo = Topology()
    sender = topo.add(HostNode("sender", topo.engine, topo.trace))
    receiver = topo.add(HostNode("receiver", topo.engine, topo.trace))
    # the core router ships WITHOUT the telemetry module installed
    core_registry = default_registry()
    core_registry.unregister(OperationKey.TELEMETRY_ARRAY)
    routers = {
        "edge": topo.add(DipRouterNode("edge", topo.engine, topo.trace)),
        "core": topo.add(
            DipRouterNode("core", topo.engine, topo.trace,
                          registry=core_registry)
        ),
        "exit": topo.add(DipRouterNode("exit", topo.engine, topo.trace)),
    }
    topo.connect("sender", 0, "edge", 1)
    topo.connect("edge", 2, "core", 1)
    topo.connect("core", 2, "exit", 1)
    topo.connect("exit", 2, "receiver", 0)
    for router in routers.values():
        router.state.fib_v4.insert(parse_ipv4("10.0.0.0"), 8, 2)

    # --- probe 1: the core hop is invisible --------------------------
    send_probe(sender)
    topo.run()
    first_path = path_of(receiver.inbox[-1][0])
    print(f"probe 1 telemetry path: {' -> '.join(first_path)}")
    assert first_path == ["edge", "exit"]

    # --- runtime upgrade: operator installs F_tel_array on core ------
    # The core lacks only key 19, so restoring the defaults installs it.
    core_registry = routers["core"].processor.registry
    version = RegistryMutation(restore_defaults=True).apply(core_registry)
    assert core_registry.supports(OperationKey.TELEMETRY_ARRAY)
    print(f"core upgraded to FN-set version {version} "
          f"(no reboot, no hardware swap)")

    # --- probe 2: the full path appears -------------------------------
    send_probe(sender)
    topo.run()
    second_path = path_of(receiver.inbox[-1][0])
    print(f"probe 2 telemetry path: {' -> '.join(second_path)}")
    assert second_path == ["edge", "core", "exit"]

    # --- rollback works too -------------------------------------------
    RegistryMutation(drop_keys=(OperationKey.TELEMETRY_ARRAY,)).apply(
        core_registry
    )
    send_probe(sender)
    topo.run()
    third_path = path_of(receiver.inbox[-1][0])
    print(f"probe 3 (after rollback): {' -> '.join(third_path)}")
    assert third_path == ["edge", "exit"]
    print("\ntelemetry + runtime reprogramming scenario checks passed")


if __name__ == "__main__":
    main()
