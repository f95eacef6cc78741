"""Worker shards: each owns a private processor and node state.

Sharding in this engine follows the share-nothing run-to-completion
model of software dataplanes (DPDK, VPP): every shard has its *own*
:class:`~repro.core.processor.RouterProcessor` and its own
:class:`~repro.core.state.NodeState` built from a state factory, so
shards never contend on FIBs, PITs or flow tables.  The flow dispatcher
guarantees all packets of one flow reach one shard, which is what makes
private per-shard state (PIT entries, telemetry) correct.

Workers are the blast-radius boundary of the resilience model
(DESIGN.md 3.9): the processor runs with ``quarantine=True`` so a
poison packet becomes an ``error`` outcome instead of a dead shard,
and an optional :class:`~repro.resilience.FaultInjector` scripts
crashes/stalls/wire damage for chaos tests.  A ``degrade`` policy maps
the paper's 2.4 failure classes (limits, missing state, unsupported
path-critical FNs) onto drop / deliver-to-host / best-effort-IP
instead of the default verdict.

``_shard_worker_main`` is the multiprocessing entry point; it is a
module-level function (picklable by name under both fork and spawn) and
speaks plain tuples over its pipe.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.core.flowcache import FlowDecisionCache
from repro.core.fn import FN_ENCODED_SIZE
from repro.core.header import BASIC_HEADER_SIZE
from repro.core.packet import DipPacket
from repro.core.processor import RouterProcessor, poison_result
from repro.core.state import NodeState
from repro.engine.shm import split_blob
from repro.resilience.faults import (
    CRASH,
    CORRUPT,
    DELAY,
    FaultInjector,
    FaultPlan,
    InjectedOperationError,
    InjectedWorkerCrash,
    OP_EXCEPTION,
    STALL,
    TRUNCATE,
    WORKER_KINDS,
    corrupt_bytes,
)
from repro.telemetry.tracing import NULL_TRACER

# What a worker sends back per packet: (decision value, ports, encoded
# output packet or None, failure reason or None).  Plain types so the
# multiprocessing backend can ship it over a pipe cheaply.
RawOutcome = Tuple[str, Tuple[int, ...], Optional[bytes], Optional[str]]

# ProcessResult.failure values eligible for graceful degradation; an
# exception class name (a quarantined poison packet) is never degraded
# -- there is no safe way to forward what could not be parsed.
_DEGRADABLE = frozenset({"limit", "state", "unsupported"})


class ShardWorker:
    """One shard: a processor plus busy-time/latency accounting.

    Parameters
    ----------
    shard_id:
        Index of this shard in the engine.
    state_factory:
        Zero-argument callable building this shard's private
        :class:`NodeState`.  Called once, at construction.
    cost_model:
        Optional cost model handed to the processor.
    flow_cache:
        Optional flow-level decision cache (private to this shard, like
        the state -- the flow dispatcher keeps a flow on one shard, so
        per-shard caches never split a flow's hit stream).
    telemetry:
        Optional :class:`repro.telemetry.MetricsRegistry` handed to the
        processor (per-FN-key op counters, cycle histograms).
    tracer:
        Optional :class:`repro.telemetry.Tracer`; when enabled the
        worker records per-batch stage spans (``shard.walk`` for the FN
        pipeline, ``shard.emit`` for output encoding).  Defaults to the
        no-op null tracer.
    registry_factory:
        Optional zero-argument callable building this shard's
        operation registry (module-level for the process backend);
        None installs the default full set.  Lets chaos/degradation
        tests model heterogeneously-configured nodes.
    degrade:
        Graceful-degradation policy for walks that failed on limits,
        missing state or unsupported path-critical FNs: ``"drop"``,
        ``"pass-to-host"`` (deliver, the paper's tag-bit semantics) or
        ``"best-effort-ip"`` (forward out the default port when one
        exists).  None (default) keeps the processor's verdict.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan`; an empty/None
        plan builds no injector and adds nothing to the batch path.
    injector:
        A pre-built injector to adopt instead of building one from
        ``fault_plan`` (the inline transport hands the old injector
        to a respawned worker so fired-fault bookkeeping survives).
    """

    def __init__(
        self,
        shard_id: int,
        state_factory: Callable[[], NodeState],
        cost_model: Optional[object] = None,
        flow_cache: Optional[FlowDecisionCache] = None,
        telemetry: Optional[object] = None,
        tracer: Optional[object] = None,
        registry_factory: Optional[Callable[[], object]] = None,
        degrade: Optional[str] = None,
        fault_plan: Optional[FaultPlan] = None,
        injector: Optional[FaultInjector] = None,
        columnar: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.flow_cache = flow_cache
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.processor = RouterProcessor(
            state_factory(),
            registry=(
                registry_factory() if registry_factory is not None else None
            ),
            cost_model=cost_model,
            flow_cache=flow_cache,
            telemetry=telemetry,
            quarantine=True,
        )
        # The batch specializer sits in front of the processor when
        # requested (and numpy is importable); unsupported compositions
        # fall back to the scalar walk inside process_batch, so the
        # swap is decision-invisible (conformance executor 13).
        self.specializer = None
        if columnar:
            from repro.engine.columnar import (
                ColumnarSpecializer,
                columnar_available,
            )

            if columnar_available():
                self.specializer = ColumnarSpecializer(self.processor)
        self.degrade = degrade
        if injector is not None:
            self.injector = injector
        else:
            self.injector = (
                FaultInjector(fault_plan, shard_id) if fault_plan else None
            )
        self.packets_processed = 0
        self.degraded = 0
        self.busy_seconds = 0.0
        # Only the last batch's latency is kept: the supervisor collects
        # the per-run series from the replies.
        self.last_latency = 0.0
        # What the replies have reported so far; an adopted injector's
        # earlier faults belong to the incarnation it came from.
        self._injected_reported = self.faults_injected
        self._degraded_reported = 0

    @property
    def faults_injected(self) -> int:
        return self.injector.injected if self.injector is not None else 0

    def run_batch(
        self,
        batch: Sequence[Union[DipPacket, bytes]],
        seq: int = 0,
        now: float = 0.0,
    ) -> List[RawOutcome]:
        """Process one batch, recording wall time spent.

        ``seq`` is the supervisor's batch sequence number for this
        shard -- the fault injector matches scripted faults against it
        (retried batches get fresh seqs, so pinned faults fire once).

        ``now`` is the simulation clock handed to the processor walk
        (PIT lifetimes, CS TTLs).  Run-to-completion callers leave it
        at 0.0 (timeless, the conformance-friendly default); the
        serving daemon stamps each flush with a monotonic clock so
        long-lived state actually expires.
        """
        overrides = None
        if self.injector is not None:
            batch, overrides = self._inject(batch, seq)
        start = time.perf_counter()
        if self.specializer is not None:
            results = self.specializer.process_batch(batch, now=now)
        else:
            results = self.processor.process_batch(batch, now=now)
        elapsed = time.perf_counter() - start
        self.busy_seconds += elapsed
        self.last_latency = elapsed
        self.packets_processed += len(results)
        # Per-batch stage span (no-op on the null tracer; one call per
        # batch, never per packet).
        self.tracer.record_span(
            "shard.walk",
            start,
            start + elapsed,
            shard=self.shard_id,
            packets=len(results),
        )
        if overrides:
            for index, result in overrides.items():
                results[index] = result
        emit_start = time.perf_counter()
        degrade = self.degrade
        out: List[RawOutcome] = []
        for item, result in zip(batch, results):
            if degrade is not None and result.failure in _DEGRADABLE:
                out.append(self._degraded_outcome(item))
                continue
            packet = result.packet
            if packet is None:
                encoded = None
            elif isinstance(item, (bytes, bytearray)):
                # Forwarding never touches the FN definitions, so the
                # output is the input with the hop-limit byte rewritten
                # and the locations region swapped -- a splice, not a
                # field-by-field re-encode (byte-identical; proven by
                # tests/engine/test_engine_equivalence.py).
                header = packet.header
                defs_end = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * item[2]
                encoded = b"".join(
                    (
                        item[:3],
                        bytes((header.hop_limit,)),
                        item[4:defs_end],
                        header.locations,
                        packet.payload,
                    )
                )
            else:
                encoded = packet.encode()
            out.append(
                (result.decision.value, result.ports, encoded, result.failure)
            )
        self.tracer.record_span(
            "shard.emit",
            emit_start,
            time.perf_counter(),
            shard=self.shard_id,
            packets=len(out),
        )
        return out

    def serve(
        self,
        seq: int,
        indices: List[int],
        batch: Sequence[Union[DipPacket, bytes]],
        now: float = 0.0,
    ) -> tuple:
        """:meth:`run_batch` plus the reply tuple of the worker protocol
        (see :func:`_shard_worker_main`), identical on both transports."""
        outcomes = self.run_batch(batch, seq=seq, now=now)
        injected, degraded = self.faults_injected, self.degraded
        reply = (
            seq,
            indices,
            outcomes,
            self.busy_seconds,
            self.last_latency,
            (
                self.flow_cache.stats()
                if self.flow_cache is not None
                else None
            ),
            injected - self._injected_reported,
            degraded - self._degraded_reported,
        )
        self._injected_reported = injected
        self._degraded_reported = degraded
        return reply

    def control(self, kind: str, value):
        """Apply one live control message; returns the value to ack.

        ``"reconfig"`` applies a
        :class:`~repro.core.registry.RegistryMutation` to the live
        registry *in place* (each register/unregister bumps the
        registry version, which invalidates the compiled-program cache
        and the flow cache on the next batch -- the zero-downtime
        hot-swap path) and acks the new version.  ``"degrade"`` flips
        the degrade policy (None or one of the PR 4 policy names);
        applied at emit time after the walk, so nothing is
        invalidated.
        """
        if kind == "reconfig":
            value.apply(self.processor.registry)
            return self.processor.registry.version
        self.degrade = value
        return value

    # ------------------------------------------------------------------
    # resilience (repro.resilience; DESIGN.md 3.9)
    # ------------------------------------------------------------------
    def _inject(self, batch, seq: int):
        """Apply the faults scripted for this batch.

        Returns the (possibly rewritten) batch plus per-index result
        overrides for op-exception faults.  Crash faults raise
        :class:`InjectedWorkerCrash` -- the inline transport catches
        it, the process main loop turns it into a hard exit.
        """
        overrides = None
        mutable = None
        for fault in self.injector.actions(seq, WORKER_KINDS):
            kind = fault.kind
            if kind == CRASH:
                raise InjectedWorkerCrash(
                    f"scripted crash: shard {self.shard_id} batch {seq}"
                )
            if kind == STALL or kind == DELAY:
                # Both sleep in-worker; STALL before the walk and DELAY
                # after it are indistinguishable at this granularity,
                # and either starves the supervisor's heartbeat.
                time.sleep(fault.delay)
            elif kind == CORRUPT or kind == TRUNCATE:
                if mutable is None:
                    mutable = list(batch)
                if mutable:
                    index = min(fault.packet, len(mutable) - 1)
                    item = mutable[index]
                    data = (
                        bytes(item)
                        if isinstance(item, (bytes, bytearray))
                        else item.encode()
                    )
                    mutable[index] = corrupt_bytes(data, kind)
            elif kind == OP_EXCEPTION:
                if len(batch):
                    if overrides is None:
                        overrides = {}
                    index = min(fault.packet, len(batch) - 1)
                    overrides[index] = poison_result(
                        InjectedOperationError(
                            f"scripted operation failure: shard "
                            f"{self.shard_id} batch {seq} packet {index}"
                        )
                    )
        return (mutable if mutable is not None else batch), overrides

    def _degraded_outcome(self, item) -> RawOutcome:
        """Apply the degrade policy to one failed walk.

        ``pass-to-host`` delivers (the paper's tag-bit: let the end
        host run what the router cannot); ``best-effort-ip`` forwards
        out the shard's default port with only the hop limit edited
        (plain-IP treatment, 5's F_pass discussion); ``drop`` -- and
        ``best-effort-ip`` with no default port -- discards.
        """
        self.degraded += 1
        if self.degrade == "pass-to-host":
            return ("deliver", (), None, "degraded")
        if self.degrade == "best-effort-ip":
            port = self.processor.state.default_port
            if port is not None:
                if isinstance(item, (bytes, bytearray)):
                    data = bytes(item)
                    encoded = (
                        data[:3]
                        + bytes(((data[3] - 1) & 0xFF,))
                        + data[4:]
                    )
                else:
                    encoded = item.encode()
                    encoded = (
                        encoded[:3]
                        + bytes(((encoded[3] - 1) & 0xFF,))
                        + encoded[4:]
                    )
                return ("forward", (port,), encoded, "degraded")
        return ("drop", (), None, "degraded")


def _shard_worker_main(
    conn,
    shard_id: int,
    state_factory: Callable[[], NodeState],
    cost_model: Optional[object],
    flow_cache_capacity: Optional[int] = None,
    registry_factory: Optional[Callable[[], object]] = None,
    degrade: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    channel=None,
    columnar: bool = False,
) -> None:
    """Multiprocessing shard loop: receive raw batches, return outcomes.

    Protocol (over a ``multiprocessing.Pipe``):

    - request: ``(seq, indices, payloads)`` or ``(seq, indices,
      payloads, now)`` where ``payloads`` is a list of raw packet
      bytes, ``seq`` the supervisor's batch sequence number for this
      shard and ``now`` the simulation clock for the walk (absent =
      0.0, the timeless default); ``None`` asks the worker to exit.
      With a shared-memory ``channel``, ``payloads`` may instead be
      ``("shm", slot, lengths)`` -- the batch blob sits in request
      frame ``slot`` and is cut back apart by ``lengths``.
    - control: ``("reconfig", mutation)`` and ``("degrade", policy)``
      go to :meth:`ShardWorker.control`.  Reply: ``("reconfig-ack",
      version)`` / ``("degrade-ack", policy)``.
    - reply: ``(seq, indices, outcomes, busy_seconds, latency,
      cache_stats, injected, degraded)``; with a shared-memory
      channel ``outcomes`` becomes ``("shm", slot, meta)`` where
      ``meta`` rows are ``(decision, ports, length-or-None, failure)``
      and the encoded output packets sit concatenated in reply frame
      ``slot`` (an oversize blob ships inline instead).  Seq and
      indices echoed so the engine can match its in-flight record and
      restore input order; ``cache_stats`` is the flow cache's
      cumulative :class:`~repro.core.flowcache.FlowCacheStats` (a
      frozen dataclass: it pickles over the pipe, and the inline
      transport hands over the object itself) or None when no cache
      is configured; ``injected``/``degraded`` are the
      faults injected and packets degraded *by this batch* (deltas,
      so a reply lost to a crash loses only its own counts).

    A scripted :class:`InjectedWorkerCrash` hard-exits the process
    (``os._exit``) -- the point is to look exactly like a segfault or
    an OOM kill to the supervisor, not like a Python exception.
    """
    worker = ShardWorker(
        shard_id,
        state_factory,
        cost_model,
        flow_cache=(
            FlowDecisionCache(flow_cache_capacity)
            if flow_cache_capacity
            else None
        ),
        registry_factory=registry_factory,
        degrade=degrade,
        fault_plan=fault_plan,
        columnar=columnar,
    )
    while True:
        request = conn.recv()
        if request is None:
            if channel is not None:
                # Drop this process's mappings only; the parent owns
                # the segments and unlinks them on every exit path.
                channel.close()
            conn.close()
            return
        if request[0] == "reconfig" or request[0] == "degrade":
            conn.send((request[0] + "-ack", worker.control(*request)))
            continue
        if len(request) == 4:
            seq, indices, payloads, now = request
        else:
            seq, indices, payloads = request
            now = 0.0
        if (
            type(payloads) is tuple
            and payloads
            and payloads[0] == "shm"
        ):
            _, slot, lengths = payloads
            payloads = split_blob(
                channel.read_request(slot, sum(lengths)), lengths
            )
        try:
            reply = worker.serve(seq, indices, payloads, now)
        except InjectedWorkerCrash:
            os._exit(1)
        if channel is not None:
            outcomes = reply[2]
            blob = b"".join(
                encoded
                for _, _, encoded, _ in outcomes
                if encoded is not None
            )
            slot = seq % channel.slots
            if channel.write_reply(slot, blob):
                meta = [
                    (
                        decision,
                        ports,
                        len(encoded) if encoded is not None else None,
                        failure,
                    )
                    for decision, ports, encoded, failure in outcomes
                ]
                reply = reply[:2] + (("shm", slot, meta),) + reply[3:]
        conn.send(reply)
