"""The asyncio serving daemon: UDP ingress + HTTP control plane.

One event loop on one thread owns everything, engine included, so
flushes, reconfigs and metric scrapes serialize by construction (a
reconfig lands between two flushes, never inside one):

- a non-blocking UDP socket under ``loop.add_reader``: each readiness
  event reads it dry (at most ``_BURST_MAX`` datagrams, so timers and
  the control plane keep getting turns), admits the burst through
  ``ServeCore.submit_many`` and answers every refusal in-band, at once;
- the batcher -- two triggers, no task: ``core.flush`` runs inline
  while ``batch_max`` are pending (size) or when the one ``call_later``
  handle armed at the first pending arrival fires (timeout).  Replies
  leave by ``sock.sendto``; one that hits EAGAIN waits in ``_unsent``
  for writability -- delayed, never dropped;
- a minimal HTTP server (``asyncio.start_server``; no third-party
  deps) for ``/metrics`` (Prometheus text), ``/healthz`` (JSON ledger,
  500 when conservation is broken) and ``/reconfig``
  (``?drop=4,5`` / ``?restore=1`` -- live operation-set hot-swap).
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
from collections import deque
from typing import Deque, Dict, Iterable, Optional, Tuple, Union

from repro.core.registry import RegistryMutation
from repro.serve.config import ServeConfig
from repro.serve.core import REFUSAL_REPLIES, ServeCore
from repro.telemetry.export import to_prometheus

_HTTP_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
                 500: "Internal Server Error"}
# Datagrams read per readiness event, at most: four default batches,
# a few milliseconds of walk before the loop gets its next turn.
_BURST_MAX = 256
_MAX_DATAGRAM = 65535
# Shutdown's bounded wait on a socket refusing the last queued replies.
_CLOSE_SEND_TIMEOUT = 1.0


class ServingDaemon:
    """Lifecycle owner: sockets, batching triggers, shutdown."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        core: Optional[ServeCore] = None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        self.core = core if core is not None else ServeCore(self.config)
        self.stopping = asyncio.Event()
        self.stop_reason: Optional[str] = None
        self.received = 0
        #: Bound ``(host, port)`` pairs, once serve() has its sockets.
        self.udp_address: Optional[Tuple[str, int]] = None
        self.http_address: Optional[Tuple[str, int]] = None
        self._sock: Optional[socket.socket] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._timer: Optional[asyncio.TimerHandle] = None
        self._unsent: Deque[Tuple[object, bytes]] = deque()
        # Bound at serve() time (the loop the daemon runs on).
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def request_stop(self, reason: str) -> None:
        """Begin shutdown (idempotent; signal handlers land here): stop
        reading ingress now; :meth:`shutdown` answers what is pending."""
        if not self.stopping.is_set():
            self.stop_reason = reason
            self.stopping.set()
            if self._sock is not None:
                self._loop.remove_reader(self._sock)

    # ------------------------------------------------------------------
    # ingress + batcher
    # ------------------------------------------------------------------
    def _on_readable(self) -> None:
        """Read the socket dry, admit the burst, flush full batches."""
        budget = _BURST_MAX
        bound = self.config.max_packets
        if bound is not None:
            # Stop at the bound exactly: the socket may hold more.
            budget = min(budget, bound - self.received)
        recvfrom = self._sock.recvfrom
        burst = []
        try:
            while len(burst) < budget:
                burst.append(recvfrom(_MAX_DATAGRAM))
        except BlockingIOError:
            pass
        if not burst:
            return  # spurious readiness (e.g. a bad-checksum datagram)
        self.received += len(burst)
        # Refusals are answered at once: accounted admission control
        # means the sender learns, in-band, why a packet was refused.
        self._send(
            (addr, REFUSAL_REPLIES[status])
            for status, (_, addr) in zip(self.core.submit_many(burst), burst)
            if status != "queued"
        )
        flushed = False
        while self.core.pending() >= self.config.batch_max:
            self._send(self.core.flush(trigger="size"))
            flushed = True
        # The timeout runs from the first *pending* arrival: a size flush
        # took everything older, so what is left arrived with this burst.
        if flushed and self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._timer is None and self.core.pending():
            self._timer = self._loop.call_later(
                self.config.batch_timeout_ms / 1000.0, self._on_timeout
            )
        if bound is not None and self.received >= bound:
            self.request_stop("max_packets")

    def _on_timeout(self) -> None:
        self._timer = None
        self._send(self.core.flush(trigger="timeout"))

    def _send(self, replies: Iterable[Tuple[object, bytes]]) -> None:
        """Send each reply now; one the socket will not take (EAGAIN)
        queues, with everything after it, until the socket is writable."""
        sock = self._sock
        unsent = self._unsent
        for addr, payload in replies:
            if not unsent:
                try:
                    sock.sendto(payload, addr)
                    continue
                except BlockingIOError:
                    self.core.reply_retries += 1
                    self._loop.add_writer(sock, self._on_writable)
                except OSError:
                    # As asyncio's transport did: a peer the kernel
                    # cannot reach must not stop the daemon.
                    continue
            unsent.append((addr, payload))

    def _on_writable(self) -> None:
        self._loop.remove_writer(self._sock)
        queued, self._unsent = self._unsent, deque()
        self._send(queued)

    # ------------------------------------------------------------------
    # HTTP control plane
    # ------------------------------------------------------------------
    async def _handle_http(self, reader, writer) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            while True:  # drain headers; we never need them
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                status, ctype, body = 400, "text/plain", "bad request"
            else:
                path, _, query = parts[1].partition("?")
                status, ctype, body = self._route(path, query)
            payload = body.encode("utf-8")
            writer.write(
                (
                    f"HTTP/1.1 {status} {_HTTP_REASONS.get(status, 'OK')}\r\n"
                    f"Content-Type: {ctype}\r\n"
                    f"Content-Length: {len(payload)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + payload
            )
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _route(self, path: str, query: str) -> Tuple[int, str, str]:
        """Runs on the loop thread, between flushes, like all core use."""
        if path == "/metrics":
            snapshot = self.core.snapshot_metrics()
            return 200, "text/plain; version=0.0.4", to_prometheus(snapshot)
        if path == "/healthz":
            summary = self.core.summary()
            # In-flight packets are not "unaccounted" -- only a ledger
            # that stays off the law once everything has drained is.
            healthy = summary["unaccounted"] == 0
            return (
                200 if healthy else 500,
                "application/json",
                json.dumps(summary, sort_keys=True),
            )
        if path == "/reconfig":
            try:
                mutation = _parse_reconfig(query)
            except ValueError as exc:
                return 400, "application/json", json.dumps(
                    {"error": str(exc)}
                )
            result = self.core.reconfigure(mutation)
            return 200, "application/json", json.dumps(result)
        return 404, "text/plain", "not found"

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def serve(self) -> Dict[str, object]:
        """Run until signalled (or the configured bound); returns the
        final conservation ledger."""
        self._loop = loop = asyncio.get_running_loop()
        config = self.config
        self._http_server = await asyncio.start_server(
            self._handle_http, config.host, config.metrics_port
        )
        info = socket.getaddrinfo(
            config.host, config.port, type=socket.SOCK_DGRAM
        )[0]
        self._sock = sock = socket.socket(*info[:3])
        sock.setblocking(False)
        sock.bind(info[4])
        self.udp_address = sock.getsockname()[:2]
        self.http_address = self._http_server.sockets[0].getsockname()[:2]
        loop.add_reader(sock, self._on_readable)
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, self.request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loops; ^C still raises KeyboardInterrupt
        if config.max_seconds is not None:
            # Never cancelled: request_stop is idempotent.
            loop.call_later(
                config.max_seconds, self.request_stop, "max_seconds"
            )
        await self.stopping.wait()
        return await self.shutdown()

    async def shutdown(self) -> Dict[str, object]:
        """Drain pending packets (replies still go out), then close."""
        self.request_stop(self.stop_reason or "shutdown")
        if self._timer is not None:
            self._timer.cancel()
        sock = self._sock
        if sock is not None:
            # Everything pending is flushed and *answered* before the
            # socket closes: the sender must be able to account for
            # every packet the ledger says was processed.
            self._send(self.core.drain())
            self._loop.remove_writer(sock)
            sock.settimeout(_CLOSE_SEND_TIMEOUT)  # the EAGAIN tail blocks
            try:
                for addr, payload in self._unsent:
                    sock.sendto(payload, addr)
            except OSError:
                pass
            sock.close()
            self._sock = None
        if self._http_server is not None:
            self._http_server.close()
            await self._http_server.wait_closed()
            self._http_server = None
        summary = self.core.summary()
        summary["stop_reason"] = self.stop_reason
        summary["received"] = self.received
        self.core.close()
        return summary


def run_daemon(
    config: Optional[ServeConfig] = None,
    json_out: Union[bool, str, None] = False,
    out=None,
) -> Dict[str, object]:
    """Blocking entry point behind ``repro serve`` (``json_out`` as
    :func:`~repro.workloads.reporting.emit_payload`'s ``json_flag``)."""
    import sys

    from repro.workloads.reporting import emit_payload

    out = out if out is not None else sys.stdout
    daemon = ServingDaemon(config)
    summary = asyncio.run(daemon.serve())

    def render() -> None:
        print(
            f"serve: offered={summary['offered']} "
            f"processed={summary['processed']} "
            f"dropped={summary['dropped_backpressure']} "
            f"dead={summary['dead_lettered']} shed={summary['shed']} "
            f"unaccounted={summary['unaccounted']} "
            f"reconfigs={summary['reconfigs']} "
            f"p99={summary['batch_latency_p99'] * 1e3:.3f}ms "
            f"({summary['stop_reason']})",
            file=out,
        )

    emit_payload(json_out, lambda: summary, render, out=out, sort_keys=True)
    return summary


def _parse_reconfig(query: str) -> RegistryMutation:
    """``drop=4,5&restore=1`` -> a RegistryMutation (ValueError on junk)."""
    drop: Tuple[int, ...] = ()
    restore = False
    for piece in filter(None, query.split("&")):
        key, _, value = piece.partition("=")
        if key == "drop":
            try:
                drop = tuple(
                    int(item) for item in value.split(",") if item
                )
            except ValueError:
                raise ValueError(f"bad drop list {value!r}")
        elif key == "restore":
            restore = value not in ("", "0", "false")
        else:
            raise ValueError(f"unknown reconfig parameter {key!r}")
    if not drop and not restore:
        raise ValueError("reconfig needs ?drop=<keys> and/or ?restore=1")
    return RegistryMutation(drop_keys=drop, restore_defaults=restore)
