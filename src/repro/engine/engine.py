"""The forwarding-engine facade: dispatch -> rings -> worker shards.

:class:`ForwardingEngine` takes a batch of packets through the full
scale-out path -- flow hash, bounded ring, shard worker -- and returns
an :class:`EngineReport` with per-packet outcomes (in input order) and
the operational numbers: throughput, per-shard utilization, ring drops
and batch-latency percentiles.

One supervised loop (:meth:`ForwardingEngine._supervise`) serves both
backends; they differ only in the transport a batch travels over
(:mod:`repro.engine.transport`):

- ``serial`` (default): every shard runs in this process, one at a
  time, on an :class:`~repro.engine.transport.InlineTransport`.
- ``process``: shards are ``multiprocessing`` workers behind a
  :class:`~repro.engine.transport.ProcessTransport`.

Backpressure ("block" vs "drop-tail") is decided here, at the point
where a ring refuses a push; the rings only count.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import (
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.flowcache import DEFAULT_CAPACITY, FlowCacheStats
from repro.core.operations.base import Decision
from repro.core.packet import DipPacket
from repro.core.registry import RegistryMutation
from repro.core.state import NodeState
from repro.engine.clock import timeless_clock
from repro.engine.dispatch import FlowDispatcher
from repro.engine.rings import Ring, RingStats
from repro.engine.transport import (
    InlineTransport,
    ProcessTransport,
    WorkerDied,
)
from repro.errors import EngineWorkerError, SimulationError
from repro.resilience.faults import FaultPlan
from repro.telemetry.metrics import (
    MetricsRegistry,
    MetricsSnapshot,
    nearest_rank,
)
from repro.telemetry.tracing import NULL_TRACER, Tracer

BACKENDS = ("serial", "process")
BACKPRESSURE_POLICIES = ("block", "drop-tail")
DEGRADE_POLICIES = ("drop", "pass-to-host", "best-effort-ip")


@dataclass(frozen=True)
class EngineConfig:
    """Engine shape: shard count, backend, batching and backpressure.

    Workers service a ring whenever it holds a full batch (and drain
    the remainder at end of input).  With ``backpressure="block"`` a
    full ring stalls the dispatcher until the shard catches up (no
    loss); with ``"drop-tail"`` the refused packet is discarded and
    counted, as a hardware RX queue would.  A ``ring_capacity`` below
    ``batch_size`` models a consumer that only wakes for full batches
    it can never get -- useful for forcing drop-tail in tests.

    ``flow_cache`` puts a flow-level decision cache
    (:class:`repro.core.flowcache.FlowDecisionCache`, bounded by
    ``flow_cache_capacity`` entries per shard) in front of every
    shard's processor; stateful programs bypass it, so it is safe for
    any workload.  It is off by default so the plain engine walks
    Algorithm 1 for every packet, as the paper does, and the cache
    stays an opt-in extension.

    ``telemetry`` turns on the unified metrics/tracing layer
    (:mod:`repro.telemetry`): a live :class:`MetricsRegistry` plus a
    :class:`Tracer` on :attr:`ForwardingEngine.metrics` /
    :attr:`ForwardingEngine.tracer`.  Off by default -- the disabled
    engine holds ``metrics = None`` and the falsy null tracer (pinned
    by ``tests/engine/test_telemetry_equivalence.py``) and is budgeted
    at 5% of the uninstrumented throughput (DESIGN.md 3.8).
    """

    num_shards: int = 4
    backend: str = "serial"
    batch_size: int = 64
    ring_capacity: int = 1024
    backpressure: str = "block"
    # ``shm`` moves batch payloads off the pickled pipe and into
    # fixed-slot shared-memory rings (repro.engine.shm); the pipes keep
    # carrying the control protocol.  Auto-disabled where fork or
    # shared_memory is unavailable.  ``columnar`` puts the batch
    # specializer (repro.engine.columnar) in front of every shard's
    # processor; compositions outside the pure subset fall back to the
    # scalar walk per packet, so it is safe for any workload.
    shm: bool = True
    columnar: bool = False
    flow_cache: bool = False
    flow_cache_capacity: int = DEFAULT_CAPACITY
    telemetry: bool = False
    # Resilience knobs (DESIGN.md 3.9).  ``degrade`` maps failed walks
    # (limits / missing state / unsupported path-critical FNs) to one
    # of DEGRADE_POLICIES instead of the processor's verdict; None
    # keeps verdicts untouched.  ``fault_plan`` scripts chaos (no-op
    # when None/empty).  The retry/restart/timeout knobs drive the
    # supervisor; ``max_dead_letters`` caps the per-run dead-letter
    # *record* (the total keeps counting past the cap).
    degrade: Optional[str] = None
    fault_plan: Optional[FaultPlan] = None
    max_retries: int = 2
    retry_backoff: float = 0.02
    worker_timeout: float = 30.0
    max_worker_restarts: int = 8
    max_dead_letters: int = 1024

    def __post_init__(self) -> None:
        if self.flow_cache_capacity <= 0:
            raise SimulationError("flow_cache_capacity must be positive")
        if self.num_shards <= 0:
            raise SimulationError("num_shards must be positive")
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown backend {self.backend!r} (want one of {BACKENDS})"
            )
        if self.batch_size <= 0:
            raise SimulationError("batch_size must be positive")
        if self.ring_capacity <= 0:
            raise SimulationError("ring_capacity must be positive")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise SimulationError(
                f"unknown backpressure {self.backpressure!r} "
                f"(want one of {BACKPRESSURE_POLICIES})"
            )
        if self.degrade is not None and self.degrade not in DEGRADE_POLICIES:
            raise SimulationError(
                f"unknown degrade policy {self.degrade!r} "
                f"(want one of {DEGRADE_POLICIES})"
            )
        if self.max_retries < 0:
            raise SimulationError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise SimulationError("retry_backoff must be >= 0")
        if self.worker_timeout <= 0:
            raise SimulationError("worker_timeout must be positive")
        if self.max_worker_restarts < 0:
            raise SimulationError("max_worker_restarts must be >= 0")
        if self.max_dead_letters < 0:
            raise SimulationError("max_dead_letters must be >= 0")


class PacketOutcome(NamedTuple):
    """One packet's fate through the engine.

    ``packet`` is the rewritten packet's encoded bytes (FORWARD only);
    byte-level so both backends report identically.  A NamedTuple, not
    a dataclass: one is built per packet on the hot path.

    ``reason`` is None for a clean walk; otherwise the failure class
    ("limit", "state", "unsupported", "degraded", or the exception
    class name of a quarantined poison packet).
    """

    decision: Decision
    ports: Tuple[int, ...] = ()
    packet: Optional[bytes] = None
    shard: int = -1
    reason: Optional[str] = None


class DeadLetter(NamedTuple):
    """One packet the supervisor gave up on (retry budget exhausted)."""

    index: int
    shard: int
    reason: str
    attempts: int


@dataclass(frozen=True)
class ShardReport:
    """Per-shard work accounting for one :meth:`ForwardingEngine.run`."""

    shard_id: int
    packets: int
    batches: int
    busy_seconds: float
    utilization: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "packets": self.packets,
            "batches": self.batches,
            "busy_seconds": self.busy_seconds,
            "utilization": self.utilization,
        }


@dataclass(frozen=True)
class EngineReport:
    """Everything one engine run produced.

    ``packets_shed`` is admission-control loss *in front of* the
    engine: the serving daemon (:mod:`repro.serve`) refuses packets
    past its in-flight bound before they reach a ring, and folds the
    count here so the PR 4 conservation law extends to the daemon:
    ``offered == processed + dropped + dead-lettered + shed``.  Plain
    ``engine.run`` calls always report 0.

    ``packets_rate_limited`` and ``packets_quarantined`` are mitigation
    verdicts in front of the rings (:mod:`repro.resilience.mitigation`):
    packets refused by the per-source token buckets, and packets whose
    sampled ``F_pass`` verification failed.  Both extend the law again:
    ``offered == processed + dropped + dead-lettered + shed +
    rate-limited + quarantined``.  Plain runs report 0 for both.
    """

    packets_offered: int
    packets_processed: int
    packets_dropped_backpressure: int
    wall_seconds: float
    decisions: Dict[str, int]
    batch_latency_p50: float = 0.0
    batch_latency_p99: float = 0.0
    shards: Tuple[ShardReport, ...] = ()
    rings: Tuple[RingStats, ...] = ()
    outcomes: Tuple[Optional[PacketOutcome], ...] = field(default=())
    # Flow-cache stats for *this* run (None when the cache is
    # disabled): counters and the size/capacity/peak gauges sum across
    # shards; across runs or worker incarnations of one shard the
    # gauges do not (FlowCacheStats.then).
    flow_cache: Optional[FlowCacheStats] = None
    # Resilience accounting (DESIGN.md 3.9).  ``dead_letter_total``
    # counts every abandoned packet; ``dead_letter`` records at most
    # EngineConfig.max_dead_letters of them.  ``packets_processed``
    # excludes dead-lettered packets, so
    # offered == processed + dropped_backpressure + dead_letter_total.
    worker_restarts: int = 0
    retries: int = 0
    degraded: int = 0
    faults_injected: int = 0
    dead_letter_total: int = 0
    dead_letter: Tuple[DeadLetter, ...] = ()
    packets_shed: int = 0
    packets_rate_limited: int = 0
    packets_quarantined: int = 0

    @classmethod
    def empty(cls) -> "EngineReport":
        """The identity element for :meth:`merge`.

        A zero-packet run: every counter an explicit 0, every rate and
        percentile an explicit 0.0.  The serving daemon folds each
        flush into an accumulator seeded with this, so an idle period
        (no flushes at all) still summarizes without any division by
        packet count or wall time.
        """
        return cls(
            packets_offered=0,
            packets_processed=0,
            packets_dropped_backpressure=0,
            wall_seconds=0.0,
            decisions={},
        )

    @property
    def pkts_per_second(self) -> float:
        """Processed packets per second of wall time (0.0 when idle)."""
        wall = self.wall_seconds
        return self.packets_processed / wall if wall > 0 else 0.0

    @property
    def packets_unaccounted(self) -> int:
        """Conservation check: 0 iff ``offered == processed + dropped
        + dead-lettered + shed + rate-limited + quarantined`` (the
        PR 4 law, extended by serve and the mitigation layer)."""
        return (
            self.packets_offered
            - self.packets_processed
            - self.packets_dropped_backpressure
            - self.dead_letter_total
            - self.packets_shed
            - self.packets_rate_limited
            - self.packets_quarantined
        )

    def merge(self, other: "EngineReport") -> "EngineReport":
        """Fold the ledger of a later run into this one.

        Both callers fold runs that happened one after the other, so
        every counter, the decision counts and ``wall_seconds`` sum,
        and :attr:`pkts_per_second` is the rate over the combined wall
        time.  The flow-cache stats fold with
        :meth:`FlowCacheStats.then` (the same caches at two times).
        Per-run detail -- outcomes, shard and ring rows, dead-letter
        records and the batch-latency percentiles -- is not folded:
        the merged report carries it empty.
        """
        decisions = dict(self.decisions)
        for name, count in other.decisions.items():
            decisions[name] = decisions.get(name, 0) + count
        if self.flow_cache is None:
            flow_cache = other.flow_cache
        elif other.flow_cache is None:
            flow_cache = self.flow_cache
        else:
            flow_cache = self.flow_cache.then(other.flow_cache)
        return EngineReport(
            decisions=decisions,
            flow_cache=flow_cache,
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _SUMMED
            },
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (packet bytes hex-encoded)."""
        return {
            "packets_offered": self.packets_offered,
            "packets_processed": self.packets_processed,
            "packets_dropped_backpressure": (
                self.packets_dropped_backpressure
            ),
            "wall_seconds": self.wall_seconds,
            "pkts_per_second": self.pkts_per_second,
            "decisions": dict(self.decisions),
            "batch_latency_p50": self.batch_latency_p50,
            "batch_latency_p99": self.batch_latency_p99,
            "shards": [shard.to_dict() for shard in self.shards],
            "rings": [ring.to_dict() for ring in self.rings],
            "outcomes": [
                None
                if outcome is None
                else {
                    "decision": outcome.decision.value,
                    "ports": list(outcome.ports),
                    "packet": (
                        None
                        if outcome.packet is None
                        else outcome.packet.hex()
                    ),
                    "shard": outcome.shard,
                    "reason": outcome.reason,
                }
                for outcome in self.outcomes
            ],
            "flow_cache": (
                None if self.flow_cache is None else self.flow_cache.to_dict()
            ),
            "worker_restarts": self.worker_restarts,
            "retries": self.retries,
            "degraded": self.degraded,
            "faults_injected": self.faults_injected,
            "dead_letter_total": self.dead_letter_total,
            "dead_letter": [
                {
                    "index": letter.index,
                    "shard": letter.shard,
                    "reason": letter.reason,
                    "attempts": letter.attempts,
                }
                for letter in self.dead_letter
            ],
            "packets_shed": self.packets_shed,
            "packets_rate_limited": self.packets_rate_limited,
            "packets_quarantined": self.packets_quarantined,
        }

    def snapshot(self) -> MetricsSnapshot:
        """This run's counters and gauges under their exported names,
        per-shard parts labeled and the flow cache folded in."""
        counters = {
            "engine_packets_offered_total": self.packets_offered,
            "engine_packets_processed_total": self.packets_processed,
            "engine_packets_dropped_backpressure_total": (
                self.packets_dropped_backpressure
            ),
            "engine_worker_restarts_total": self.worker_restarts,
            "engine_retries_total": self.retries,
            "engine_degraded_total": self.degraded,
            "engine_dead_letter_total": self.dead_letter_total,
            "engine_shed_total": self.packets_shed,
            "engine_rate_limited_total": self.packets_rate_limited,
            "engine_quarantined_total": self.packets_quarantined,
            "resilience_faults_injected_total": self.faults_injected,
        }
        for name, count in self.decisions.items():
            counters[f'engine_decisions_total{{decision="{name}"}}'] = count
        gauges = {
            "engine_wall_seconds": self.wall_seconds,
            "engine_pkts_per_second": self.pkts_per_second,
        }
        for index, ring in enumerate(self.rings):
            label = f'{{shard="{index}"}}'
            counters[f"engine_ring_enqueued_total{label}"] = ring.enqueued
            counters[f"engine_ring_dropped_total{label}"] = ring.dropped
            gauges[f"engine_ring_capacity{label}"] = ring.capacity
            gauges[f"engine_ring_occupancy_high_watermark{label}"] = (
                ring.high_watermark
            )
        for shard in self.shards:
            label = f'{{shard="{shard.shard_id}"}}'
            counters[f"engine_shard_packets_total{label}"] = shard.packets
            counters[f"engine_shard_batches_total{label}"] = shard.batches
            gauges[f"engine_shard_busy_seconds{label}"] = shard.busy_seconds
            gauges[f"engine_shard_utilization{label}"] = shard.utilization
        snapshot = MetricsSnapshot(counters=counters, gauges=gauges)
        if self.flow_cache is not None:
            snapshot = snapshot.merge(self.flow_cache.snapshot())
        return snapshot


class ForwardingEngine:
    """A sharded forwarding engine around :class:`RouterProcessor`.

    Parameters
    ----------
    state_factory:
        Zero-argument callable building one shard's private
        :class:`NodeState`.  For the ``process`` backend it must be a
        module-level (picklable) function.
    cost_model:
        Optional cost model handed to every shard's processor.
    config:
        Engine shape; defaults to 4 serial shards.
    registry_factory:
        Optional zero-argument callable building each shard's
        operation registry (module-level for the ``process`` backend);
        None installs the full default set.  Restricted registries
        model heterogeneously-configured nodes (2.4), which is how
        the degradation policies get exercised end to end.
    """

    def __init__(
        self,
        state_factory: Callable[[], NodeState],
        cost_model: Optional[object] = None,
        config: Optional[EngineConfig] = None,
        registry_factory: Optional[Callable[[], object]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = config if config is not None else EngineConfig()
        self.state_factory = state_factory
        self.cost_model = cost_model
        self.registry_factory = registry_factory
        # The one time-base seam (repro.engine.clock): run() calls with
        # no explicit ``now`` stamp batches from this zero-arg callable.
        # Timeless (0.0) by default, wall_clock under the serving
        # daemon, a ManualClock driven by fabric virtual time under
        # co-simulation.  Lives parent-side only; workers receive the
        # resolved float per batch, so picklability never matters.
        self.clock: Callable[[], float] = (
            clock if clock is not None else timeless_clock
        )
        self.dispatcher = FlowDispatcher(self.config.num_shards)
        # Live degrade policy: starts at the config's value and can be
        # flipped mid-lifetime by set_degrade() (the quarantine-rate
        # circuit breaker's actuator).  Workers built or respawned
        # after a flip inherit the current value.
        self._degrade: Optional[str] = self.config.degrade
        # Unified telemetry (repro.telemetry): live registry + tracer
        # when configured; otherwise no registry and the falsy no-op
        # tracer, so the hot paths never branch on "is telemetry on?".
        self.metrics: Optional[MetricsRegistry] = None
        self.tracer = NULL_TRACER
        if self.config.telemetry:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer()
        # The only place the backend is looked at: everything below
        # talks to the transport seam (repro.engine.transport).
        self._transport = (
            InlineTransport
            if self.config.backend == "serial"
            else ProcessTransport
        )(self)
        self._reset_incarnations()

    def _reset_incarnations(self) -> None:
        """Supervisor bookkeeping that lives as long as the workers do.

        ``_seqs`` is the next batch sequence number per shard
        (monotonic across runs, so a ``batch=``-pinned fault fires
        once).  ``_cache_seen`` is the last cumulative flow-cache
        stats each shard's *current* worker reported; a run's counters
        are the deltas against it, and a fresh worker starts from a
        fresh (empty) cache's stats.
        """
        num = self.config.num_shards
        self._fresh_cache = FlowCacheStats(
            capacity=self.config.flow_cache_capacity
        )
        self._seqs: List[int] = [0] * num
        self._cache_seen: List[FlowCacheStats] = [self._fresh_cache] * num

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ForwardingEngine":
        """Bring the shard workers up until :meth:`close`.

        A started ``process`` engine keeps its workers -- and their
        shard state (PIT, CS, flow cache) -- across :meth:`run` calls,
        which is what a long-lived daemon needs; reports stay per-run
        deltas.  Without ``start()`` every ``run()`` is exactly
        ``start()`` -> run -> ``close()``: fresh workers, fresh state.
        Idempotent; a no-op for the serial backend (its shards live as
        long as the engine).
        """
        if not self._transport.started:
            self._transport.start()
            self._reset_incarnations()
        return self

    def close(self) -> None:
        """Shut process workers down.  Idempotent."""
        self._transport.close()

    def __enter__(self) -> "ForwardingEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def reconfigure(self, mutation: RegistryMutation) -> int:
        """Hot-swap every shard's operation set mid-lifetime.

        Applies a :class:`~repro.core.registry.RegistryMutation` to
        each shard's *live* registry; the version bumps it causes make
        the next batch on every shard recompile its program cache and
        flush its flow cache (the generation-token invalidation the
        flow cache already keys off), while batches already submitted
        drain under the old generation.  Must not race :meth:`run` --
        the serving daemon calls both from its one event-loop thread.
        Returns the highest new registry version.
        """
        if not self._transport.started:
            raise SimulationError(
                "reconfigure() requires start(): an un-started engine "
                "rebuilds its workers from the factory on every run"
            )
        return max(self._transport.control("reconfig", mutation))

    def set_degrade(self, policy: Optional[str]) -> Optional[str]:
        """Flip every shard's degrade policy mid-lifetime.

        The circuit breaker's actuator: a node whose quarantine rate
        trips the breaker switches into one of the PR 4 policies
        (``"drop"`` / ``"pass-to-host"`` / ``"best-effort-ip"``) and
        back to ``None`` on recovery, without restarting workers or
        losing shard state.  Safe mid-stream: degrade applies at emit
        time, *after* the walk and the flow cache, so no cache flush or
        recompile is needed.  Like :meth:`reconfigure`, must not race
        :meth:`run`.  Returns the previous policy.
        """
        if policy is not None and policy not in DEGRADE_POLICIES:
            raise SimulationError(
                f"unknown degrade policy {policy!r} "
                f"(want one of {DEGRADE_POLICIES})"
            )
        previous = self._degrade
        self._degrade = policy
        # Un-started: the next run's workers are built from
        # self._degrade, so there is nothing live to update.
        if self._transport.started:
            acks = self._transport.control("degrade", policy)
            if any(applied != policy for applied in acks):
                raise EngineWorkerError(
                    f"shards acked {acks!r} to degrade {policy!r}"
                )
        return previous

    @property
    def degrade(self) -> Optional[str]:
        """The live degrade policy (config value until set_degrade)."""
        return self._degrade

    def shard_state(self, shard: int) -> NodeState:
        """One shard's live :class:`NodeState` (PIT, CS, FIBs).

        Serial backend only -- on the ``process`` backend the state
        lives in the worker processes and this raises
        :class:`SimulationError`.
        """
        return self._transport.state(shard)

    # ------------------------------------------------------------------
    def run(
        self,
        packets: Sequence[Union[DipPacket, bytes]],
        now: Optional[float] = None,
    ) -> EngineReport:
        """Push ``packets`` through the engine; outcomes keep input order.

        ``now`` is the simulation clock stamped on every batch walk
        (PIT lifetimes, CS TTLs).  When omitted it is read from the
        injected ``clock`` seam -- timeless 0.0 by default (the
        conformance-friendly mode), wall time under the serving
        daemon, fabric virtual time under co-simulation.  An explicit
        ``now`` always wins over the clock.
        """
        if not self._transport.started:
            with self:
                return self.run(packets, now)
        if now is None:
            now = self.clock()
        with self.tracer.span("engine.run", packets=len(packets)):
            return self._supervise(packets, now)

    def _supervise(self, packets, now: float) -> EngineReport:
        """The one engine loop: dispatch -> ring -> submit -> collect.

        This is the supervisor (DESIGN.md 3.9), written once against
        the transport seam: every batch handed to a shard is tracked in
        a per-shard in-flight FIFO until its reply is collected, every
        blocking collect is a heartbeat, and a worker death -- however
        the transport noticed it -- goes through ``worker_failed``:
        respawn, resubmit the in-flight batches, exponential backoff.
        A batch that kills its worker more than ``max_retries`` times
        is dead-lettered, never silently lost; a shard failing more
        than ``max_worker_restarts`` times raises
        :class:`EngineWorkerError`.
        """
        config = self.config
        transport = self._transport
        num = config.num_shards
        batch_size = config.batch_size
        seqs = self._seqs
        cache_seen = self._cache_seen
        plan = config.fault_plan
        # Rings carry input indices; the payload is packets[index].
        rings = [Ring(config.ring_capacity) for _ in range(num)]
        outcomes: List[Optional[PacketOutcome]] = [None] * len(packets)
        # In-flight record per shard: [seq, indices, payloads, failures]
        # in submit order (workers reply in order, so FIFO matching).
        inflight: List[deque] = [deque() for _ in range(num)]
        batches = [0] * num
        packets_done = [0] * num
        busy = [0.0] * num
        cache_run: List[Optional[FlowCacheStats]] = [None] * num
        restarts_run = [0] * num
        # Resilience counters of this run.  The dead-letter *record* is
        # capped (the total keeps counting) so a pathological run
        # cannot make the report unbounded.
        tally = SimpleNamespace(
            restarts=0, retries=0, degraded=0, faults=0,
            dead=[], dead_total=0,
        )
        latencies: List[float] = []
        dropped = 0
        start = time.perf_counter()

        def worker_failed(shard: int, reason: str) -> None:
            """Respawn a dead shard and resubmit its in-flight batches.

            Workers run their batches in order and every reply the dead
            one sent has been collected, so the head of the FIFO is the
            batch it died on: that one is charged a failure (and
            dead-lettered past the retry budget); the ones queued
            behind it never started and are simply resubmitted.  Seqs
            restart right after the culprit's, so how many batches
            happened to be in flight never shows in the numbering.
            """
            tally.restarts += 1
            restarts_run[shard] += 1
            if plan is not None and plan.crash_scripted(shard):
                # A crashed worker cannot report its own injected-fault
                # count; attribute one scripted crash per death.
                tally.faults += 1
            requeue = inflight[shard]
            inflight[shard] = deque()
            if restarts_run[shard] > config.max_worker_restarts:
                raise EngineWorkerError(
                    f"shard {shard} worker failed ({reason}) after "
                    f"{restarts_run[shard] - 1} restart(s) with "
                    f"{sum(len(e[1]) for e in requeue)} packet(s) in flight"
                )
            transport.respawn(shard)
            # The dead worker's unreported tail (the failing batch) is
            # gone with it; its replacement's cache starts empty.
            cache_seen[shard] = self._fresh_cache
            if cache_run[shard] is not None:
                cache_run[shard] = cache_run[shard].then(self._fresh_cache)
            culprit = requeue[0]
            seqs[shard] = culprit[0] + 1
            culprit[3] += 1
            if culprit[3] > config.max_retries:
                for index in culprit[1]:
                    tally.dead_total += 1
                    if len(tally.dead) < config.max_dead_letters:
                        tally.dead.append(
                            DeadLetter(index, shard, reason, culprit[3])
                        )
                requeue.popleft()
            else:
                tally.retries += 1
                if config.retry_backoff:
                    time.sleep(config.retry_backoff * 2 ** (culprit[3] - 1))
            for entry in requeue:
                transmit(shard, entry)

        def transmit(shard: int, entry: list) -> None:
            entry[0] = seqs[shard]
            seqs[shard] += 1
            inflight[shard].append(entry)
            transport.submit(shard, entry[0], entry[1], entry[2], now)

        def send_batch(shard: int) -> None:
            # Only here can the window be full: worker_failed resubmits
            # at most the window it has just emptied.  (Keeping the wait
            # out of transmit also keeps these closures free of
            # reference cycles, so a run's garbage dies by refcount.)
            while len(inflight[shard]) >= transport.window:
                collect(shard, blocking=True)
            indices = rings[shard].pop_batch(batch_size)
            if indices:
                transmit(
                    shard, [0, indices, [packets[i] for i in indices], 0]
                )

        def collect(shard: int, blocking: bool) -> bool:
            """Account one reply; False when none is ready or the
            worker died (it has been respawned by then)."""
            try:
                reply = transport.collect(shard, blocking)
            except WorkerDied as death:
                worker_failed(shard, str(death))
                return False
            if reply is None:
                return False
            seq, indices, raw, _, latency, cache_stats, injected, degraded = (
                reply
            )
            entry = inflight[shard].popleft()
            if entry[0] != seq:  # pragma: no cover - protocol invariant
                raise EngineWorkerError(
                    f"shard {shard} replied out of order "
                    f"(seq {seq}, expected {entry[0]})"
                )
            # A batch's latency is the busy time it added.
            busy[shard] += latency
            latencies.append(latency)
            packets_done[shard] += len(indices)
            batches[shard] += 1
            tally.faults += injected
            tally.degraded += degraded
            if cache_stats is not None:
                delta = cache_stats - cache_seen[shard]
                cache_seen[shard] = cache_stats
                cache_run[shard] = (
                    delta
                    if cache_run[shard] is None
                    else cache_run[shard].then(delta)
                )
            if self.tracer:
                # Worker-side spans may live in another process; the
                # supervisor reconstructs the batch span from the
                # reported latency at reply receipt.
                reply_at = time.perf_counter()
                self.tracer.record_span(
                    "engine.batch",
                    reply_at - latency,
                    reply_at,
                    shard=shard,
                    packets=len(indices),
                )
            for index, outcome in zip(indices, raw):
                outcomes[index] = _outcome(outcome, shard)
            return True

        def collect_ready(block_shard: Optional[int] = None) -> None:
            # Drain replies so pipes never fill up; optionally block on
            # one shard until it has made progress.
            for shard in range(num):
                if shard == block_shard:
                    while inflight[shard]:
                        if collect(shard, blocking=True):
                            break
                while inflight[shard] and collect(shard, blocking=False):
                    pass

        drop_tail = config.backpressure == "drop-tail"
        for index, shard in enumerate(self.dispatcher.shards_of(packets)):
            ring = rings[shard]
            if not ring.push(index):
                if drop_tail:
                    ring.record_drop()
                    dropped += 1
                    continue
                # Loop until the ring accepts the packet: with
                # batch_size > ring_capacity one send_batch may not
                # free enough slots.
                while not ring.push(index):
                    send_batch(shard)
                    collect_ready(block_shard=shard)
            if len(ring) >= batch_size:
                send_batch(shard)
                collect_ready()
        for shard in range(num):
            while len(rings[shard]):
                send_batch(shard)
                collect_ready()
        for shard in range(num):
            while inflight[shard]:
                collect(shard, blocking=True)

        wall = time.perf_counter() - start
        shard_reports = tuple(
            ShardReport(
                shard_id=i,
                packets=packets_done[i],
                batches=batches[i],
                busy_seconds=busy[i],
                utilization=busy[i] / wall if wall > 0 else 0.0,
            )
            for i in range(num)
        )
        flow_stats = None
        if config.flow_cache:
            # A shard that saw no batch this run still has a cache:
            # zero counters, its last known gauges.
            flow_stats = FlowCacheStats.total(
                run if run is not None else seen - seen
                for run, seen in zip(cache_run, cache_seen)
            )
        decisions: Dict[str, int] = {}
        for outcome in outcomes:
            if outcome is not None:
                name = outcome.decision.value
                decisions[name] = decisions.get(name, 0) + 1
        processed = len(packets) - dropped - tally.dead_total
        latencies.sort()
        report = EngineReport(
            packets_offered=len(packets),
            packets_processed=processed,
            packets_dropped_backpressure=dropped,
            wall_seconds=wall,
            decisions=decisions,
            batch_latency_p50=nearest_rank(latencies, 0.50),
            batch_latency_p99=nearest_rank(latencies, 0.99),
            shards=shard_reports,
            rings=tuple(ring.stats() for ring in rings),
            outcomes=tuple(outcomes),
            flow_cache=flow_stats,
            worker_restarts=tally.restarts,
            retries=tally.retries,
            degraded=tally.degraded,
            faults_injected=tally.faults,
            dead_letter_total=tally.dead_total,
            dead_letter=tuple(tally.dead),
        )
        if self.metrics:
            self._publish(report, latencies)
        return report

    def _publish(
        self, report: EngineReport, sorted_latencies: List[float]
    ) -> None:
        """Fold one run's report into the live registry.

        Called once per :meth:`run` (never on the per-packet path) and
        only when telemetry is on, so the disabled engine pays nothing
        here.  The registry uses :meth:`EngineReport.snapshot`'s names:
        its counters add up to running totals, its gauges hold the
        latest run's values, and the batch latencies feed a mergeable
        log2 histogram.
        """
        metrics = self.metrics
        snapshot = report.snapshot()
        for name, count in snapshot.counters.items():
            metrics.counter(name).inc(count)
        for name, value in snapshot.gauges.items():
            metrics.gauge(name).set(value)
        metrics.histogram("engine_batch_latency_seconds").observe_many(
            sorted_latencies
        )


# EngineReport.merge sums these; everything else is per-run detail.
_SUMMED = (
    "packets_offered",
    "packets_processed",
    "packets_dropped_backpressure",
    "wall_seconds",
    "worker_restarts",
    "retries",
    "degraded",
    "faults_injected",
    "dead_letter_total",
    "packets_shed",
    "packets_rate_limited",
    "packets_quarantined",
)

_DECISION_BY_VALUE = {decision.value: decision for decision in Decision}


def _outcome(raw, shard: int) -> PacketOutcome:
    decision, ports, packet, reason = raw
    return PacketOutcome(
        _DECISION_BY_VALUE[decision], ports, packet, shard, reason
    )
