"""Scale & determinism: a 3x3 router grid with many consumers.

Exercises multicast fan-out, aggregation, caching, and reproducibility
properties that only appear beyond toy topologies.
"""


from repro.netsim import DipRouterNode, HostNode, Topology
from repro.protocols.ndn.cs import ContentStore
from repro.realize.ndn import build_interest_packet, name_digest
from tests.integration.support import fetch, producer_app, received

GRID = 3  # 3x3 routers
CONTENT = {name_digest(f"/grid/item-{i}"): f"item-{i}".encode() for i in range(8)}


def build_grid(cache_at_edge=False):
    """3x3 router grid; producer at (2,2); consumers on row 0.

    Ports: 1..4 = links to grid neighbours (N/S/W/E), 5+ = hosts.
    Routing: simple static 'go east then south' toward the producer.
    """
    topo = Topology()
    routers = {}
    for row in range(GRID):
        for col in range(GRID):
            node = topo.add(
                DipRouterNode(f"r{row}{col}", topo.engine, topo.trace)
            )
            routers[(row, col)] = node
            if cache_at_edge and row == 0:
                node.state.content_store = ContentStore(capacity=32)
    # east-west links: port 4 = east, port 3 = west
    for row in range(GRID):
        for col in range(GRID - 1):
            topo.connect(f"r{row}{col}", 4, f"r{row}{col+1}", 3)
    # north-south links: port 2 = south, port 1 = north
    for row in range(GRID - 1):
        for col in range(GRID):
            topo.connect(f"r{row}{col}", 2, f"r{row+1}{col}", 1)

    # static content routing: east until col=2, then south until row=2
    for (row, col), node in routers.items():
        port = 4 if col < GRID - 1 else 2
        if (row, col) == (GRID - 1, GRID - 1):
            port = 5  # producer port
        for digest in CONTENT:
            node.state.name_fib_digest.insert(digest, 32, port)

    producer = topo.add(
        HostNode("producer", topo.engine, topo.trace, app=producer_app(CONTENT))
    )
    topo.connect(f"r{GRID-1}{GRID-1}", 5, "producer", 0)

    consumers = []
    for col in range(GRID):
        host = topo.add(HostNode(f"c{col}", topo.engine, topo.trace))
        topo.connect(f"r0{col}", 5 + col, f"c{col}", 0)
        consumers.append(host)
    return topo, routers, producer, consumers


class TestGridDelivery:
    def test_all_consumers_fetch_everything(self):
        topo, routers, producer, consumers = build_grid()
        for offset, host in enumerate(consumers):
            for index, digest in enumerate(CONTENT):
                topo.engine.schedule(
                    0.01 * (index * len(consumers) + offset),
                    fetch, host, digest, 1.0,
                )
        topo.run()
        for host in consumers:
            assert received(host) == CONTENT

    def test_concurrent_interests_aggregate(self):
        """Three consumers asking simultaneously -> producer serves once."""
        topo, routers, producer, consumers = build_grid()
        digest = next(iter(CONTENT))
        for host in consumers:
            topo.engine.schedule(0.0, fetch, host, digest, 2.0)
        topo.run()
        # each consumer enters the grid at a different router, so the
        # interests merge where their paths join; the producer must see
        # strictly fewer interests than consumers
        assert all(received(host) == {digest: CONTENT[digest]} for host in consumers)
        assert producer.app.served < len(consumers)

    def test_edge_caching_cuts_producer_load(self):
        topo, routers, producer, consumers = build_grid(cache_at_edge=True)
        digest = next(iter(CONTENT))
        fetch(consumers[0], digest, 1.0)
        topo.run()
        served_before = producer.app.served
        # second fetch from the same edge: answered from r00's cache
        consumers[0].send_packet(build_interest_packet(digest))
        topo.run()
        assert len(consumers[0].inbox) == 2
        assert producer.app.served == served_before
        assert len(topo.trace.of_kind("cache-reply")) >= 1


class TestDeterminism:
    def _run_once(self):
        topo, routers, producer, consumers = build_grid()
        for offset, host in enumerate(consumers):
            for index, digest in enumerate(CONTENT):
                topo.engine.schedule(0.01 * (index + offset), fetch, host, digest, 1.0)
        topo.run()
        return [
            (event.time, event.node_id, event.event)
            for event in topo.trace.events
        ]

    def test_identical_runs_produce_identical_traces(self):
        assert self._run_once() == self._run_once()
