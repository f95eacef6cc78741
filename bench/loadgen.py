"""The benchmark's own UDP load generator for the serving daemon.

``repro.serve.client.run_load`` cannot be used as a meter: its default
window of 256 overflows the daemon socket's default receive buffer, its
rate divides by an elapsed time that includes the tail timeout, and it
records no per-packet latency.  This sender keeps 128 datagrams
unacknowledged (closed loop), or sends on a fixed schedule while probe
sockets measure latency with one datagram in flight each (open loop).
Rates are taken over the send interval only, and every datagram that
gets no reply is counted.

One process, no threads: the daemon needs a core of its own on a
2-core machine.
"""

from __future__ import annotations

import random
import select
import socket
import time
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

WINDOW = 128
OPEN_RATE = 2000.0  # background datagrams per second, open loop
PROBE_RATE = 1000.0  # latency probes per second, open loop
# Each probe socket has at most one probe in flight; with ~4 ms replies
# about four are busy at a time and sixteen practically never all are.
PROBE_SOCKETS = 16
# A datagram unanswered this long has failed.  Stalls of a few hundred
# milliseconds happen to any process on a shared 2-core host, so the
# limit is well above them: a failure should be the program's.
REPLY_TIMEOUT = 1.0


class ClosedSlice(NamedTuple):
    seconds: float
    completed: int
    cpu_seconds: float


class OpenSlice(NamedTuple):
    latencies: List[float]  # probe due time -> reply, seconds
    lateness: List[float]  # actual send - scheduled send, seconds


class LoadGenerator:
    """Sends ``wires`` cyclically to ``address`` and counts every reply.

    ``replies`` maps distinct reply bytes to how often they arrived, so
    the caller can check them against what it expects without the
    sender decoding anything inside a timed loop.
    """

    def __init__(
        self, address: Tuple[str, int], wires: Sequence[bytes], seed: int
    ) -> None:
        self.address = address
        self.wires = wires
        self.rng = random.Random(seed)  # open-loop arrival times
        self.sent = 0
        self.received = 0
        self.replies: Dict[bytes, int] = {}
        self.sock = self._connect()
        self.probes = [self._connect() for _ in range(PROBE_SOCKETS)]

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.connect(self.address)
        return sock

    def close(self) -> None:
        self.sock.close()
        for probe in self.probes:
            probe.close()

    @property
    def lost(self) -> int:
        """Datagrams sent that never got a reply."""
        return self.sent - self.received

    def _send(self, sock: socket.socket) -> None:
        sock.send(self.wires[self.sent % len(self.wires)])
        self.sent += 1

    def _count(self, data: bytes) -> None:
        self.replies[data] = self.replies.get(data, 0) + 1
        self.received += 1

    def _drain(self, sock: socket.socket, outstanding: int) -> None:
        """Collect up to ``outstanding`` tail replies (bounded wait)."""
        sock.settimeout(REPLY_TIMEOUT)
        while outstanding > 0:
            try:
                self._count(sock.recv(4096))
            except socket.timeout:
                return
            outstanding -= 1

    # ------------------------------------------------------------------
    def closed_loop(
        self, seconds: float, slices: int, cpu: Callable[[], float]
    ) -> List[ClosedSlice]:
        """Keep ``WINDOW`` datagrams in flight for ``seconds``.

        The window stays full across slice boundaries, so each slice's
        rate is replies over exactly its own send interval; ``cpu()``
        is read at each boundary.  Returns with nothing in flight.
        """
        sock = self.sock
        sock.settimeout(REPLY_TIMEOUT)
        clock = time.perf_counter
        out: List[ClosedSlice] = []
        inflight = 0
        mark_time, mark_received, mark_cpu = clock(), self.received, cpu()
        cut = mark_time + seconds / slices
        while len(out) < slices:
            while inflight < WINDOW:
                self._send(sock)
                inflight += 1
            try:
                data = sock.recv(4096)
            except socket.timeout:
                # Everything in flight is lost (it stays counted in
                # ``sent``): restart the window so a dropped datagram
                # cannot wedge the loop.
                inflight = 0
                continue
            self._count(data)
            inflight -= 1
            now = clock()
            if now >= cut:
                now_cpu = cpu()
                out.append(
                    ClosedSlice(
                        now - mark_time,
                        self.received - mark_received,
                        now_cpu - mark_cpu,
                    )
                )
                mark_time, mark_received, mark_cpu = (
                    now, self.received, now_cpu
                )
                cut = now + seconds / slices
        self._drain(sock, inflight)
        return out

    # ------------------------------------------------------------------
    def open_loop(self, seconds: float, slices: int) -> List[OpenSlice]:
        """Send ``OPEN_RATE`` datagrams/s on schedule and probe latency.

        Background datagrams and probes arrive as two Poisson streams
        (independent users; a periodic probe would beat against the
        daemon's 5 ms batch timer and see one phase of it).  Background
        datagrams go out on the sender socket when they are due,
        whatever the daemon is doing -- held back only while ``WINDOW``
        are unanswered, so that a stall of this process cannot turn
        into a burst that overflows the daemon's socket buffer; how
        late the sender ran is reported.  A probe goes out on a probe
        socket that has nothing in flight, so a reply can only belong
        to the probe that is out on its socket.  A probe's latency runs
        from its *due* time, which charges a stalled daemon for the
        probes it delayed.
        """
        sock = self.sock
        sock.setblocking(False)
        for probe in self.probes:
            probe.setblocking(False)
        clock = time.perf_counter
        gap = self.rng.expovariate
        out: List[OpenSlice] = []
        current = OpenSlice([], [])
        background = 0  # background datagrams still unanswered
        start = clock()
        due = start
        probe_due = start
        # Per probe socket: due time of the probe in flight, send time.
        origin: List[Optional[float]] = [None] * len(self.probes)
        sent_at = [0.0] * len(self.probes)
        cut = start + seconds / slices
        while True:
            now = clock()
            if now >= cut:
                out.append(current)
                if len(out) == slices:
                    break
                current = OpenSlice([], [])
                cut += seconds / slices
            while due <= now and background < WINDOW:
                self._send(sock)
                background += 1
                current.lateness.append(now - due)
                due += gap(OPEN_RATE)
            for index, began in enumerate(origin):
                if began is not None and now - sent_at[index] > REPLY_TIMEOUT:
                    # This probe failed (it stays counted in ``sent``).
                    # Its stale reply must not be taken for a later
                    # probe's: give the slot a fresh socket.
                    origin[index] = None
                    self.probes[index].close()
                    self.probes[index] = self._connect()
                    self.probes[index].setblocking(False)
            idle = None in origin
            if probe_due <= now and idle:
                index = origin.index(None)
                self._send(self.probes[index])
                origin[index], sent_at[index] = probe_due, now
                probe_due += gap(PROBE_RATE)
            wake = cut
            if background < WINDOW:
                wake = min(wake, due)
            if idle:
                wake = min(wake, probe_due)
            ready, _, _ = select.select(
                [sock] + self.probes, (), (),
                min(REPLY_TIMEOUT, max(0.0, wake - clock())),
            )
            for ready_sock in ready:
                while True:
                    try:
                        data = ready_sock.recv(4096)
                    except BlockingIOError:
                        break
                    arrived = clock()
                    self._count(data)
                    if ready_sock is sock:
                        background -= 1
                        continue
                    index = self.probes.index(ready_sock)
                    if origin[index] is not None:
                        current.latencies.append(arrived - origin[index])
                        origin[index] = None
        for index, began in enumerate(origin):
            if began is not None:
                self._drain(self.probes[index], 1)
        self._drain(sock, background)
        return out
