"""The full DIP life cycle in one scenario.

Everything the paper describes, chained end to end over the simulator:

1. the host bootstraps its AS's FN set over control frames (§2.3);
2. it lints the composition it intends to send (§2.4 safety);
3. it negotiates OPT keys in-band (footnote 3, F_keysetup);
4. it ships NDN+OPT secure content requests (§3's derived protocol);
5. mid-session, the operator runtime-installs F_pass after detecting a
   poisoning attempt (§2.4 dynamic policy) and the attack stops;
6. telemetry slots record the path the data actually took (§5).
"""

import pytest

from repro.core.composer import Severity, lint_program
from repro.core.fn import OperationKey
from repro.core.operations.keysetup import read_collected_keys
from repro.core.operations.telemetry import node_digest32, read_telemetry_array
from repro.core.packet import DipPacket
from repro.core.header import DipHeader
from repro.core.registry import RegistryMutation
from repro.netsim import DipRouterNode, HostNode, Topology
from repro.netsim.bootstrap import bootstrap_host_async
from repro.protocols.ndn.cs import ContentStore
from repro.realize.derived import build_ndn_opt_data
from repro.realize.extensions import with_telemetry_array
from repro.realize.keysetup import (
    assemble_session,
    build_key_setup_packet,
    destination_reply,
)
from repro.realize.ndn import build_interest_packet, install_name_route

DST_V4 = 0x0A000009
CONTENT_NAME = "/secure/archive"
CONTENT = b"the archived bytes"


@pytest.fixture
def network():
    topo = Topology()
    consumer = topo.add(HostNode("consumer", topo.engine, topo.trace))
    r1 = topo.add(DipRouterNode("r1", topo.engine, topo.trace))
    r2 = topo.add(DipRouterNode("r2", topo.engine, topo.trace))
    producer = topo.add(HostNode("producer", topo.engine, topo.trace))
    topo.connect("consumer", 0, "r1", 1)
    topo.connect("r1", 2, "r2", 1)
    topo.connect("r2", 2, "producer", 0)
    topo.wire_neighbor_labels()
    for router in (r1, r2):
        install_name_route(router.state, "/secure", 2)
        router.state.fib_v4.insert(0x0A000000, 8, 2)
    producer.stack.state.add_local_v4(DST_V4)
    return topo, consumer, r1, r2, producer


def test_full_life_cycle(network):
    topo, consumer, r1, r2, producer = network

    # -- 1. bootstrap ---------------------------------------------------
    bootstrap_host_async(consumer)
    topo.run()
    assert OperationKey.KEYSETUP in consumer.stack.available_fns

    # -- 2/3. negotiate keys in-band (data path: producer -> consumer) --
    setup_box = {}

    def producer_setup_app(host, packet, port):
        if any(fn.key == OperationKey.KEYSETUP for fn in packet.header.fns):
            setup_box["collected"] = read_collected_keys(
                packet.header.locations, field_loc_bits=64
            )

    producer.app = producer_setup_app
    setup = build_key_setup_packet(
        DST_V4, 0x0B000001, "producer", "consumer", nonce=b"fs", max_hops=4
    )
    # reverse-path session: the producer is the OPT source, so the
    # consumer initiates setup by asking the producer to run it; in this
    # scenario we let the consumer's stack carry the packet (the path is
    # symmetric), collecting r1 then r2.
    errors = [
        d for d in lint_program(setup.header)
        if d.severity is Severity.ERROR
    ]
    assert not errors
    consumer.send_packet(setup)
    topo.run()
    session_id, collected = setup_box["collected"]
    # data-path order producer->consumer is the reverse of collection
    collected = list(reversed(collected))
    session = assemble_session(
        "producer", "consumer", session_id, collected,
        destination_reply(consumer.stack.state.router_key, session_id),
    )
    assert session.path_ids == ("r2", "r1")
    consumer.stack.state.opt_sessions[session.session_id] = session
    r2.state.opt_positions[session.session_id] = 0
    r1.state.opt_positions[session.session_id] = 1

    # -- 4. secure content delivery with telemetry ----------------------
    def producer_content_app(host, packet, port):
        digest = int.from_bytes(packet.header.locations[:4], "big")
        data = build_ndn_opt_data(digest, session, CONTENT, timestamp=3)
        data = DipPacket(
            header=with_telemetry_array(data.header, slots=4),
            payload=data.payload,
        )
        host.send_packet(data, port=port)

    producer.app = producer_content_app
    consumer.send_packet(build_interest_packet(CONTENT_NAME))
    topo.run()
    assert len(consumer.inbox) >= 1
    packet, result = consumer.inbox[-1]
    assert packet.payload == CONTENT
    assert result.scratch["opt_report"].ok
    telemetry_fn = packet.header.fns[-1]
    records = read_telemetry_array(
        packet.header.locations, field_loc_bits=telemetry_fn.field_loc
    )
    assert [d for d, _ in records] == [
        node_digest32("r2"), node_digest32("r1"),
    ]

    # -- 5. attack detected: runtime-enable F_pass on r1 -----------------
    r1.state.content_store = ContentStore(capacity=8)
    from repro.core.fn import FieldOperation
    from repro.realize.ndn import name_digest

    poison = DipPacket(
        header=DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.FIB),
                FieldOperation(0, 32, OperationKey.PIT),
            ),
            locations=name_digest(CONTENT_NAME).to_bytes(4, "big"),
        ),
        payload=b"POISON",
    )
    attacker = topo.add(HostNode("attacker", topo.engine, topo.trace))
    topo.connect("attacker", 0, "r1", 9)
    attacker.send_packet(poison)
    topo.run()
    # without the defense the poison was cached at r1
    from repro.core.operations.fib import digest_name

    assert r1.state.content_store.lookup(
        digest_name(name_digest(CONTENT_NAME))
    ) is not None

    r1.state.content_store.clear()
    r1.state.passport_enabled = True
    # quarantine the data plane: the same edit /reconfig?drop= applies
    RegistryMutation(drop_keys=(OperationKey.PIT,)).apply(r1.processor.registry)
    attacker.send_packet(poison)
    topo.run()
    assert r1.state.content_store.lookup(
        digest_name(name_digest(CONTENT_NAME))
    ) is None
    # service restored after the attack subsides
    RegistryMutation(restore_defaults=True).apply(r1.processor.registry)
    assert r1.processor.registry.supports(OperationKey.PIT)
