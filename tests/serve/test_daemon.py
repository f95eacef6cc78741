"""End-to-end daemon tests over loopback UDP + the HTTP control plane.

Each test runs a full asyncio scenario (``asyncio.run`` -- the suite
has no async plugin): start a daemon on ephemeral ports, drive it with
the real load generator, scrape/steer it over HTTP, and check the
final conservation ledger against the client-side accounting.
"""

import asyncio
import json
import socket

import pytest

from repro.core.registry import RegistryMutation
from repro.realize.ndn import build_interest_packet
from repro.serve import ServeConfig, ServeCore, decode_reply
from repro.serve.client import build_load, run_load
from repro.serve.daemon import ServingDaemon, _parse_reconfig
from repro.serve.state import serve_content_names


async def start_daemon(**overrides):
    """A running daemon on ephemeral ports + its serve() task."""
    defaults = dict(
        port=0,
        metrics_port=0,
        shards=2,
        batch_max=16,
        batch_timeout_ms=2.0,
        content_count=64,
        cs_ttl=30.0,
    )
    defaults.update(overrides)
    daemon = ServingDaemon(ServeConfig(**defaults))
    task = asyncio.ensure_future(daemon.serve())
    while daemon.http_address is None:
        if task.done():
            task.result()  # surface the startup error
        await asyncio.sleep(0.01)
    udp_port = daemon.udp_address[1]
    http_port = daemon.http_address[1]
    return daemon, task, udp_port, http_port


async def http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode("latin-1")
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode("utf-8")


def test_daemon_serves_load_and_control_plane():
    async def scenario():
        daemon, task, udp_port, http_port = await start_daemon()

        client = await run_load(
            port=udp_port, packets=400, content_count=64, window=64
        )
        assert client["sent"] == 400
        assert client["missing"] == 0
        assert client["decode_errors"] == 0

        status, body = await http_get(http_port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["unaccounted"] == 0
        assert health["offered"] == 400

        status, body = await http_get(http_port, "/metrics")
        assert status == 200
        assert "serve_offered_total 400" in body
        assert "engine_shed_total" in body
        assert "engine_packets_processed_total" in body

        # Live hot-swap: drop F_FIB mid-life, then keep serving.
        status, body = await http_get(http_port, "/reconfig?drop=4")
        assert status == 200
        assert json.loads(body) == {
            "registry_version": json.loads(body)["registry_version"],
            "generation": 1,
        }
        client2 = await run_load(
            port=udp_port, packets=200, content_count=64, window=64
        )
        assert client2["missing"] == 0
        # With F_FIB dropped nothing DELIVERs any more: local names
        # default-forward like everything else (ignored non-critical FN).
        assert "deliver" in client["statuses"]
        assert "deliver" not in client2["statuses"]

        daemon.request_stop("test")
        summary = await task
        assert summary["offered"] == 600
        assert summary["unaccounted"] == 0
        assert summary["reconfigs"] == 1
        assert summary["stop_reason"] == "test"

    asyncio.run(scenario())


def test_daemon_http_error_paths():
    async def scenario():
        daemon, task, _, http_port = await start_daemon()
        status, _ = await http_get(http_port, "/nope")
        assert status == 404
        status, body = await http_get(http_port, "/reconfig")
        assert status == 400
        assert "error" in json.loads(body)
        status, _ = await http_get(http_port, "/reconfig?drop=x")
        assert status == 400
        daemon.request_stop("test")
        summary = await task
        assert summary["reconfigs"] == 0

    asyncio.run(scenario())


def test_daemon_stops_at_max_packets_and_answers_everything():
    async def scenario():
        daemon, task, udp_port, _ = await start_daemon(max_packets=120)
        client = await run_load(
            port=udp_port, packets=120, content_count=64, window=32
        )
        summary = await task
        assert summary["stop_reason"] == "max_packets"
        assert summary["offered"] == 120
        assert summary["unaccounted"] == 0
        assert client["missing"] == 0
        assert client["replies"] == 120

    asyncio.run(scenario())


def test_shed_replies_reach_the_client():
    async def scenario():
        # max_inflight=1 with per-packet flushes: almost every packet
        # of a window finds the queue full and the client sees "shed".
        # The window stays small enough that the kernel's UDP receive
        # buffer never drops the burst -- shed must be the *accounted*
        # refusal, not wire loss.
        daemon, task, udp_port, _ = await start_daemon(
            max_inflight=1, batch_max=1, batch_timeout_ms=50.0
        )
        client = await run_load(
            port=udp_port, packets=300, content_count=64, window=32
        )
        daemon.request_stop("test")
        summary = await task
        assert summary["unaccounted"] == 0
        assert client["missing"] == 0
        assert summary["shed"] == client["statuses"].get("shed", 0)
        assert summary["shed"] > 0

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# burst-drain ingress: the socket is read dry per readiness event
# ----------------------------------------------------------------------
def burst_socket(udp_port):
    """A plain socket whose sends all land in the daemon's receive
    buffer before the event loop (this thread) gets its next turn."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
    sock.connect(("127.0.0.1", udp_port))
    return sock


async def recv_replies(sock, count, timeout=5.0):
    """Up to ``count`` replies, in arrival order, without blocking the
    loop the daemon shares with the test."""
    sock.setblocking(False)
    replies = []
    clock = asyncio.get_running_loop().time
    deadline = clock() + timeout
    while len(replies) < count:
        try:
            replies.append(sock.recv(65535))
        except BlockingIOError:
            if clock() > deadline:
                break
            await asyncio.sleep(0.002)
    return replies


def test_burst_is_answered_in_arrival_order_in_full_batches():
    async def scenario():
        overrides = dict(shards=1, batch_max=16, batch_timeout_ms=20.0)
        daemon, task, udp_port, _ = await start_daemon(**overrides)
        wires = build_load(200, content_count=64)
        with burst_socket(udp_port) as sock:
            for wire in wires:
                sock.send(wire)
            replies = await recv_replies(sock, len(wires))
        daemon.request_stop("test")
        summary = await task

        # The same datagrams through a transport-free core: the daemon
        # must answer exactly these, in this order.
        twin = ServeCore(daemon.config)
        try:
            twin.submit_many([(wire, None) for wire in wires])
            assert replies == [payload for _, payload in twin.drain()]
        finally:
            twin.close()
        assert summary["offered"] == summary["replied"] == 200
        assert summary["unaccounted"] == 0
        # One readiness event read all 200: 12 full batches by size
        # and the 8 left over on the timer, never a flush per packet.
        assert summary["ingress_bursts"] == 1
        assert summary["flushes"] <= 200 // 16 + 2
        assert summary["flush_triggers"] == {
            "size": 12, "timeout": 1, "drain": 0,
        }

    asyncio.run(scenario())


def test_burst_past_max_inflight_is_shed_in_band_and_accounted():
    async def scenario():
        # batch_max > max_inflight: nothing flushes by size, so of 64
        # datagrams read in one burst exactly 8 queue and 56 are shed.
        daemon, task, udp_port, http_port = await start_daemon(
            max_inflight=8, batch_max=16, batch_timeout_ms=150.0
        )
        client = await run_load(
            port=udp_port, packets=64, content_count=64, window=64
        )
        _, body = await http_get(http_port, "/healthz")
        health = json.loads(body)
        daemon.request_stop("test")
        summary = await task
        assert client["missing"] == 0
        assert client["statuses"]["shed"] == summary["shed"] == 56
        assert summary["processed"] == 8
        assert summary["unaccounted"] == 0
        assert health["ingress_bursts"] == 1
        assert health["flush_triggers"]["timeout"] == 1

    asyncio.run(scenario())


def test_reconfig_between_bursts_applies_to_every_later_reply():
    async def scenario():
        daemon, task, udp_port, http_port = await start_daemon(
            shards=1, batch_max=16, batch_timeout_ms=5000.0
        )
        # Producer-local name: DELIVER while F_FIB is installed, a
        # default FORWARD once it is dropped.
        wire = build_interest_packet(serve_content_names(64, 7)[0]).encode()
        with burst_socket(udp_port) as sock:
            for _ in range(20):
                sock.send(wire)
            early = await recv_replies(sock, 16)  # one size flush
            assert daemon.core.pending() == 4
            status, _ = await http_get(http_port, "/reconfig?drop=4")
            assert status == 200
            for _ in range(12):
                sock.send(wire)
            late = await recv_replies(sock, 16)
        daemon.request_stop("test")
        summary = await task
        assert [decode_reply(r)[0] for r in early] == ["deliver"] * 16
        # The 4 still pending at the ack are walked on the new
        # generation too: no reply after the ack is a DELIVER.
        assert [decode_reply(r)[0] for r in late] == ["forward"] * 16
        assert summary["generation"] == 1
        assert summary["unaccounted"] == 0

    asyncio.run(scenario())


def test_reader_stops_exactly_at_max_packets():
    async def scenario():
        daemon, task, udp_port, _ = await start_daemon(max_packets=50)
        wires = build_load(80, content_count=64)
        with burst_socket(udp_port) as sock:
            for wire in wires:  # 30 more than the bound, already queued
                sock.send(wire)
            replies = await recv_replies(sock, 80, timeout=0.5)
        summary = await task
        assert summary["stop_reason"] == "max_packets"
        assert summary["offered"] == summary["received"] == 50
        assert summary["unaccounted"] == 0
        assert len(replies) == 50

    asyncio.run(scenario())


class _FlakySocket:
    """The daemon's socket, except that one ``sendto`` hits EAGAIN."""

    def __init__(self, sock):
        self._real = sock
        self.refusals = 1

    def sendto(self, payload, addr):
        if self.refusals:
            self.refusals -= 1
            raise BlockingIOError
        return self._real.sendto(payload, addr)

    def __getattr__(self, name):
        return getattr(self._real, name)


def test_reply_that_hits_eagain_is_retried_not_dropped():
    async def scenario():
        daemon, task, udp_port, http_port = await start_daemon()
        daemon._sock = _FlakySocket(daemon._sock)
        client = await run_load(
            port=udp_port, packets=100, content_count=64, window=32
        )
        _, metrics = await http_get(http_port, "/metrics")
        daemon.request_stop("test")
        summary = await task
        assert client["missing"] == 0
        assert summary["replied"] == 100
        assert summary["reply_retries"] == 1
        assert "serve_reply_retries_total 1" in metrics

    asyncio.run(scenario())


def test_parse_reconfig():
    mutation = _parse_reconfig("drop=4,5")
    assert mutation == RegistryMutation(drop_keys=(4, 5))
    mutation = _parse_reconfig("restore=1&drop=9")
    assert mutation.restore_defaults and mutation.drop_keys == (9,)
    with pytest.raises(ValueError):
        _parse_reconfig("")
    with pytest.raises(ValueError):
        _parse_reconfig("frob=1")
    with pytest.raises(ValueError):
        _parse_reconfig("drop=a,b")
