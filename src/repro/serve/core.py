"""ServeCore: the transport-free heart of the serving daemon.

Everything the daemon does between "datagram arrived" and "reply
bytes ready" lives here, with no sockets and no event loop, so the
same code is driven three ways:

- by :mod:`repro.serve.daemon` (asyncio UDP + HTTP around it);
- by the conformance matrix (the ``serve`` executor submits a
  scenario's wire corpus and flushes synchronously, proving the
  framing/batching path preserves Algorithm 1 decisions);
- by unit tests, which can step ``submit``/``flush`` deterministically.

Threading contract: the daemon calls everything here -- ``submit_many``,
``flush``, ``reconfigure``, ``summary``, ``snapshot_metrics`` -- from
its one event-loop thread, so engine runs, reconfigs and scrapes
serialize by construction and a batch in flight has always drained on
the old generation before a swap applies.  The ingress queue and the
counters still sit behind one lock (taken once per burst and a few times per
flush, never per packet), so a driver that does submit from a second
thread stays safe; the engine itself must only ever be driven from one.

Conservation (DESIGN.md 3.11, extending PR 4's law): every datagram
ever submitted is *offered*; it is then exactly one of processed /
dropped (ring backpressure) / dead-lettered (supervisor gave up) /
shed (admission control refused it) / rate-limited or quarantined
(mitigation-gate verdicts, DESIGN.md 3.14) / still pending.
``summary()`` reports the difference as ``unaccounted``, which must be
0 -- the ``/healthz`` endpoint turns nonzero into HTTP 500.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import deque
from dataclasses import replace
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.core.operations.base import Decision
from repro.core.registry import RegistryMutation
from repro.engine import (
    EngineConfig,
    EngineReport,
    ForwardingEngine,
    wall_clock,
)
from repro.serve.config import ServeConfig
from repro.serve.state import serve_content_state_factory
from repro.telemetry.metrics import Histogram, MetricsSnapshot, nearest_rank

# Reply wire format: 1 status byte, 1 port-count byte, 2 bytes per
# port (big endian), then the rewritten packet bytes (FORWARD) or the
# delivered payload position (empty for everything else).  Status is
# the Decision code below, or one of the admission-refusal codes --
# SHED_STATUS (queue full), RATE_LIMITED_STATUS / QUARANTINED_STATUS
# (mitigation gate verdicts) -- the daemon answers every datagram, so
# the load generator can account for each packet it sent without a
# side channel.
_DECISION_CODES: Dict[str, int] = {
    Decision.CONTINUE.value: 0,
    Decision.FORWARD.value: 1,
    Decision.DELIVER.value: 2,
    Decision.DROP.value: 3,
    Decision.UNSUPPORTED.value: 4,
    Decision.ERROR.value: 5,
}
_CODE_NAMES = {code: name for name, code in _DECISION_CODES.items()}
SHED_STATUS = 0xFF
RATE_LIMITED_STATUS = 0xFE
QUARANTINED_STATUS = 0xFD
_CODE_NAMES[SHED_STATUS] = "shed"
_CODE_NAMES[RATE_LIMITED_STATUS] = "rate-limited"
_CODE_NAMES[QUARANTINED_STATUS] = "quarantined"
_STATUS_CODES = {name: code for code, name in _CODE_NAMES.items()}
SHED_REPLY = bytes((SHED_STATUS, 0))
RATE_LIMITED_REPLY = bytes((RATE_LIMITED_STATUS, 0))
QUARANTINED_REPLY = bytes((QUARANTINED_STATUS, 0))
#: Canned reply for every non-queued submit_ex status.
REFUSAL_REPLIES = {
    "shed": SHED_REPLY,
    "rate-limited": RATE_LIMITED_REPLY,
    "quarantined": QUARANTINED_REPLY,
}

#: Why a flush ran: ``batch_max`` were pending, ``batch_timeout_ms``
#: passed since the first pending arrival, or the caller is emptying
#: the queue (shutdown, the conformance executor, tests).
FLUSH_TRIGGERS = ("size", "timeout", "drain")

# Batch-latency history kept for the p99 the BENCH ledger reports;
# bounded so a week-long daemon cannot grow it (the cap is logged in
# summary() as latency_window).
_LATENCY_WINDOW = 8192


def encode_reply(
    status: str, ports: Tuple[int, ...] = (), packet: Optional[bytes] = None
) -> bytes:
    """Render one reply (see the wire format note above)."""
    code = _STATUS_CODES[status]
    out = bytearray((code, len(ports)))
    for port in ports:
        out += int(port).to_bytes(2, "big")
    if packet:
        out += packet
    return bytes(out)


def decode_reply(data: bytes) -> Tuple[str, Tuple[int, ...], bytes]:
    """Parse one reply into ``(status, ports, packet_bytes)``."""
    if len(data) < 2:
        raise ValueError("reply too short")
    status = _CODE_NAMES.get(data[0])
    if status is None:
        raise ValueError(f"unknown reply status {data[0]:#x}")
    count = data[1]
    offset = 2 + 2 * count
    if len(data) < offset:
        raise ValueError("reply truncated inside port list")
    ports = tuple(
        int.from_bytes(data[2 + 2 * i: 4 + 2 * i], "big")
        for i in range(count)
    )
    return status, ports, data[offset:]


class ServeCore:
    """Ingress queue + admission control + engine driving + accounting.

    Parameters
    ----------
    config:
        The daemon's :class:`~repro.serve.config.ServeConfig`.
    state_factory / registry_factory:
        Override the served node (defaults to the bounded
        content-delivery state built from ``config``); module-level
        callables when ``config.backend == "process"``.
    """

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        state_factory=None,
        registry_factory=None,
        cost_model=None,
        mitigation_config=None,
    ) -> None:
        self.config = config if config is not None else ServeConfig()
        if state_factory is None:
            state_factory = functools.partial(
                serve_content_state_factory,
                content_count=self.config.content_count,
                seed=self.config.seed,
                cs_capacity=self.config.cs_capacity,
                cs_ttl=self.config.cs_ttl,
                pit_capacity=self.config.pit_capacity,
                pit_eviction=self.config.pit_eviction,
            )
        self.engine = ForwardingEngine(
            state_factory,
            cost_model=cost_model,
            config=EngineConfig(
                num_shards=self.config.shards,
                backend=self.config.backend,
                batch_size=self.config.batch_max,
                ring_capacity=self.config.ring_capacity,
                backpressure="drop-tail",
                flow_cache=self.config.flow_cache,
            ),
            registry_factory=registry_factory,
            clock=wall_clock,
        )
        self.engine.start()
        # The mitigation gate (DESIGN.md 3.14) sits in front of the
        # ingress queue: refused datagrams never take a queue slot, so
        # a flood cannot crowd legit arrivals out of max_inflight.
        # Gate state is guarded by self._lock; breaker transitions are
        # actuated from flush(), which owns the engine.
        self.gate = None
        if mitigation_config is not None or self.config.mitigation:
            from repro.resilience.mitigation import (
                MitigationConfig,
                MitigationGate,
            )

            self.gate = MitigationGate(
                mitigation_config
                if mitigation_config is not None
                else MitigationConfig(),
                verify_state=state_factory(),
            )
        self._breaker_restore = None
        self.started_at = time.monotonic()
        self._lock = threading.Lock()
        self._queue: Deque[Tuple[object, bytes]] = deque()
        self._offered = 0
        self._shed = 0
        self._rate_limited = 0
        self._quarantined = 0
        self._replied = 0
        #: Replies whose first ``sendto`` hit EAGAIN and were queued for
        #: a retry; the transport that owns the socket counts them here.
        self.reply_retries = 0
        self._bursts = 0
        self._burst_sizes = Histogram("serve_ingress_burst_size")
        self._flush_triggers = dict.fromkeys(FLUSH_TRIGGERS, 0)
        self._flushes = 0
        self._reconfigs = 0
        self._generation = 0
        self._report = EngineReport.empty()
        self._latencies: Deque[float] = deque(maxlen=_LATENCY_WINDOW)

    # ------------------------------------------------------------------
    # ingress side
    # ------------------------------------------------------------------
    def submit(self, data: bytes, addr: object) -> bool:
        """Offer one datagram; False means it was refused (shed, or a
        mitigation verdict), True means it is pending a flush."""
        return self.submit_ex(data, addr) == "queued"

    def submit_ex(self, data: bytes, addr: object) -> str:
        """Offer one datagram; returns its admission status.

        ``"queued"`` means pending a flush; anything else is a refusal
        the caller answers with ``REFUSAL_REPLIES[status]``:
        ``"rate-limited"`` / ``"quarantined"`` are mitigation-gate
        verdicts (checked first, so a flood never occupies the queue),
        ``"shed"`` is the max_inflight admission bound.  Every status
        is accounted, extending the conservation law to ``offered ==
        processed + dropped + dead-lettered + shed + rate-limited +
        quarantined + pending``.
        """
        with self._lock:
            return self._admit(data, addr)

    def submit_many(
        self, burst: Iterable[Tuple[bytes, object]]
    ) -> List[str]:
        """Offer one socket burst of ``(data, addr)`` pairs under a
        single lock acquisition; returns each one's ``submit_ex``
        status, in order.  The gate verdict and the ``max_inflight``
        bound are still decided packet by packet, so the outcome is
        exactly that of ``submit_ex`` called once per datagram."""
        admit = self._admit
        with self._lock:
            statuses = [admit(data, addr) for data, addr in burst]
            self._bursts += 1
            self._burst_sizes.observe(len(statuses))
        return statuses

    def _admit(self, data: bytes, addr: object) -> str:
        """One admission decision; the caller holds ``self._lock``."""
        self._offered += 1
        if self.gate is not None:
            verdict = self.gate.admit(data)
            if verdict == "rate-limited":
                self._rate_limited += 1
                return verdict
            if verdict == "quarantined":
                self._quarantined += 1
                return verdict
        if len(self._queue) >= self.config.max_inflight:
            self._shed += 1
            return "shed"
        self._queue.append((addr, data))
        return "queued"

    def pending(self) -> int:
        with self._lock:
            return len(self._queue)

    # ------------------------------------------------------------------
    # engine side
    # ------------------------------------------------------------------
    def flush(
        self,
        now: Optional[float] = None,
        collect: Optional[list] = None,
        trigger: str = "drain",
    ) -> List[Tuple[object, bytes]]:
        """Run one batch through the engine; returns (addr, reply) pairs.

        ``now`` defaults to the monotonic clock, so PIT lifetimes and
        CS TTLs age in real time under the daemon (tests pass explicit
        clocks to step time deterministically; the conformance executor
        pins 0.0, the timeless convention every other executor runs
        under).  ``collect``, when given, receives ``(addr,
        PacketOutcome)`` pairs -- the pre-encoding verdicts the
        conformance differ compares, since the reply wire format keeps
        the decision but not the failure-reason taxonomy.  ``trigger``
        (one of ``FLUSH_TRIGGERS``) only labels the flush in the
        ``serve_flush_trigger_total`` counter.
        """
        with self._lock:
            batch: List[bytes] = []
            addrs: List[object] = []
            while self._queue and len(batch) < self.config.batch_max:
                addr, data = self._queue.popleft()
                addrs.append(addr)
                batch.append(data)
        if not batch:
            return []
        stamp = self.engine.clock() if now is None else now
        report = self.engine.run(batch, now=stamp)
        if self.gate is not None:
            # Walk-side quarantines feed the breaker window, as on
            # MitigatedEngine.  Breaker transitions actuate here --
            # flush owns the engine, the gate (locked) only records
            # verdicts.
            with self._lock:
                self.gate.observe_outcomes(report.outcomes)
                transition = self.gate.poll_breaker()
                policy = self.gate.config.breaker_policy
            if transition == "trip":
                self._breaker_restore = self.engine.set_degrade(policy)
            elif transition == "recover":
                self.engine.set_degrade(self._breaker_restore)
                self._breaker_restore = None
        if collect is not None:
            collect.extend(zip(addrs, report.outcomes))
        replies = [
            (
                addr,
                encode_reply(
                    "drop" if outcome is None else outcome.decision.value,
                    () if outcome is None else outcome.ports,
                    None if outcome is None else outcome.packet,
                ),
            )
            for addr, outcome in zip(addrs, report.outcomes)
        ]
        with self._lock:
            # merge keeps no per-packet or per-shard detail, so the
            # accumulator stays O(1) however long the daemon lives.
            self._report = self._report.merge(report)
            self._latencies.append(report.wall_seconds)
            self._flushes += 1
            self._flush_triggers[trigger] += 1
            self._replied += len(replies)
        return replies

    def drain(
        self, now: Optional[float] = None, collect: Optional[list] = None
    ) -> List[Tuple[object, bytes]]:
        """Flush until the ingress queue is empty."""
        replies: List[Tuple[object, bytes]] = []
        while self.pending():
            replies.extend(self.flush(now, collect=collect))
        return replies

    def reconfigure(self, mutation: RegistryMutation) -> Dict[str, int]:
        """Hot-swap the operation set on every shard.  Called between
        flushes on the thread that runs them, so every batch already
        walked used the old generation and every later one the new;
        datagrams still pending are walked on the new generation."""
        version = self.engine.reconfigure(mutation)
        with self._lock:
            self._reconfigs += 1
            self._generation += 1
            generation = self._generation
        return {"registry_version": version, "generation": generation}

    def close(self) -> None:
        self.engine.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """The daemon's ledger; ``unaccounted`` must be 0 when idle."""
        with self._lock:
            report = self._report
            pending = len(self._queue)
            offered = self._offered
            shed = self._shed
            rate_limited = self._rate_limited
            quarantined = self._quarantined
            latencies = sorted(self._latencies)
            flushes = self._flushes
            flush_triggers = dict(self._flush_triggers)
            bursts = self._bursts
            replied = self._replied
            reconfigs = self._reconfigs
            generation = self._generation
            mitigation = (
                None if self.gate is None else self.gate.stats().to_dict()
            )
        uptime = time.monotonic() - self.started_at
        processed = report.packets_processed
        dropped = report.packets_dropped_backpressure
        dead = report.dead_letter_total
        return {
            "offered": offered,
            "processed": processed,
            "dropped_backpressure": dropped,
            "dead_lettered": dead,
            "shed": shed,
            "rate_limited": rate_limited,
            "quarantined": quarantined,
            "pending": pending,
            "unaccounted": (
                offered - processed - dropped - dead - shed
                - rate_limited - quarantined - pending
            ),
            "mitigation": mitigation,
            "replied": replied,
            "flushes": flushes,
            "flush_triggers": flush_triggers,
            "ingress_bursts": bursts,
            "reply_retries": self.reply_retries,
            "reconfigs": reconfigs,
            "generation": generation,
            "decisions": dict(report.decisions),
            "uptime_seconds": uptime,
            "pkts_per_second": processed / uptime if uptime > 0 else 0.0,
            "batch_latency_p50": nearest_rank(latencies, 0.50),
            "batch_latency_p99": nearest_rank(latencies, 0.99),
            "latency_window": _LATENCY_WINDOW,
            "shed_fraction": shed / offered if offered else 0.0,
            "flow_cache": (
                None
                if report.flow_cache is None
                else report.flow_cache.to_dict()
            ),
        }

    def snapshot_metrics(self) -> MetricsSnapshot:
        """Engine counters (accumulated) plus the serve-level ledger."""
        with self._lock:
            report = replace(
                self._report,
                packets_shed=self._shed,
                packets_rate_limited=self._rate_limited,
                packets_quarantined=self._quarantined,
            )
            counters = {
                "serve_offered_total": self._offered,
                "serve_shed_total": self._shed,
                "serve_rate_limited_total": self._rate_limited,
                "serve_quarantined_total": self._quarantined,
                "serve_replies_total": self._replied,
                "serve_flushes_total": self._flushes,
                "serve_reconfigs_total": self._reconfigs,
                "serve_ingress_bursts_total": self._bursts,
                "serve_reply_retries_total": self.reply_retries,
            }
            for trigger, count in self._flush_triggers.items():
                counters[
                    f'serve_flush_trigger_total{{reason="{trigger}"}}'
                ] = count
            burst_sizes = self._burst_sizes.snapshot()
            gauges = {
                "serve_pending": float(len(self._queue)),
                "serve_generation": float(self._generation),
                "serve_uptime_seconds": (
                    time.monotonic() - self.started_at
                ),
            }
            gate_snapshot = (
                None if self.gate is None else self.gate.stats().snapshot()
            )
        snapshot = report.snapshot().merge(
            MetricsSnapshot(
                counters=counters,
                gauges=gauges,
                histograms={"serve_ingress_burst_size": burst_sizes},
            )
        )
        if gate_snapshot is not None:
            snapshot = snapshot.merge(gate_snapshot)
        return snapshot
