"""Shard transports: where a batch goes once the supervisor has cut it.

:class:`~repro.engine.engine.ForwardingEngine` runs one supervised
dispatch/submit/collect loop; *how* a batch reaches a shard worker and
how its reply comes back is hidden behind this seam.  A transport
promises:

``start()`` / ``close()`` / ``started``
    Worker lifetime.  Both are idempotent.  An inline transport is
    always started (its shards live as long as the engine); a process
    transport forks in ``start()`` and reaps in ``close()``.
``window``
    Batches a shard may have in flight; the supervisor collects before
    it submits past it.
``submit(shard, seq, indices, payloads, now)``
    Hand one batch to a shard.  Never fails: a worker that is already
    gone is reported by ``collect``, after every reply it did send.
``collect(shard, blocking)``
    The shard's next reply, in submit order, as the worker-protocol
    tuple ``(seq, indices, outcomes, busy_total, latency, cache_stats,
    injected, degraded)`` with ``outcomes`` a list of
    :data:`~repro.engine.workers.RawOutcome`, or, from a shared-memory
    frame, ``(blob, rows)``: rows whose packet slot holds the output
    packet's length, the packets themselves concatenated in ``blob``
    (the supervisor cuts them apart as it reads the rows, so no row is
    touched twice).  ``None`` when nothing is ready (non-blocking only).
    Raises :class:`WorkerDied` when the worker crashed or, blocking,
    stayed silent past ``worker_timeout`` (the heartbeat).
``respawn(shard)``
    Replace the shard's worker with a fresh one built from the
    engine's factories and *current* degrade policy.  Batches in
    flight on the old worker are forgotten; the supervisor resubmits.
``control(kind, value)``
    Apply a live control message to every shard
    (:meth:`~repro.engine.workers.ShardWorker.control`); returns the
    per-shard ack values.
``state(shard)``
    The shard's live :class:`~repro.core.state.NodeState`, where it is
    reachable.

Batch encoding (pickled pipe payloads vs shared-memory frames,
:mod:`repro.engine.shm`) is a detail of :class:`ProcessTransport`: the
supervisor never sees a frame reference.
"""

from __future__ import annotations

import multiprocessing
from typing import List, Optional

from repro.core.flowcache import FlowDecisionCache
from repro.core.state import NodeState
from repro.engine import shm
from repro.engine.workers import ShardWorker, _shard_worker_main
from repro.errors import EngineWorkerError, SimulationError


class WorkerDied(Exception):
    """A shard worker crashed or wedged; the message is the reason."""


class InlineTransport:
    """Shards in this process: ``submit`` runs the batch on the spot.

    Deterministic, no pickling constraints, and still fast -- the win
    comes from :meth:`RouterProcessor.process_batch` amortizing
    per-program work, not from true parallelism.  Shards live for the
    engine's lifetime so stateful protocols (PIT, telemetry) and
    flow-cache entries persist across runs.
    """

    started = True
    window = 1

    def __init__(self, engine) -> None:
        self._engine = engine
        shards = range(engine.config.num_shards)
        self._workers = [self._build(shard) for shard in shards]
        # Per shard (window is 1): the uncollected reply tuple, or the
        # WorkerDied its batch ended in.
        self._pending: list = [None for _ in shards]

    def _build(self, shard: int, injector=None) -> ShardWorker:
        engine = self._engine
        config = engine.config
        return ShardWorker(
            shard,
            engine.state_factory,
            engine.cost_model,
            flow_cache=(
                FlowDecisionCache(config.flow_cache_capacity)
                if config.flow_cache
                else None
            ),
            telemetry=engine.metrics,
            tracer=engine.tracer,
            registry_factory=engine.registry_factory,
            degrade=engine.degrade,
            fault_plan=config.fault_plan,
            injector=injector,
            columnar=config.columnar,
        )

    def start(self) -> None:
        pass

    def close(self) -> None:
        pass

    def submit(self, shard, seq, indices, payloads, now) -> None:
        try:
            reply = self._workers[shard].serve(seq, indices, payloads, now)
        except Exception as exc:
            reply = WorkerDied(f"worker died ({type(exc).__name__}: {exc})")
        self._pending[shard] = reply

    def collect(self, shard: int, blocking: bool) -> Optional[tuple]:
        reply, self._pending[shard] = self._pending[shard], None
        if type(reply) is WorkerDied:
            raise reply
        return reply

    def respawn(self, shard: int) -> None:
        # The injector moves to the new worker so the plan's fired-fault
        # bookkeeping survives the restart (a pinned one-shot crash
        # kills once, not once per incarnation).
        self._workers[shard] = self._build(
            shard, injector=self._workers[shard].injector
        )

    def control(self, kind: str, value) -> list:
        return [worker.control(kind, value) for worker in self._workers]

    def state(self, shard: int) -> NodeState:
        return self._workers[shard].processor.state


class ProcessTransport:
    """Shards as forked ``multiprocessing`` workers fed over pipes.

    The state factory must be picklable (a module-level function),
    which is why workers rebuild state from a factory instead of
    receiving live objects.  With ``EngineConfig.shm`` the batch bytes
    ride in fixed-slot shared-memory frames (one per in-flight batch,
    hence ``window``) and the pipes carry only the control protocol;
    a batch too big for a frame ships inline.
    """

    # A frame must not be rewritten while its batch is in flight; the
    # same bound keeps pipe-only batches out of the socket buffers.
    window = shm.DEFAULT_SLOTS

    def __init__(self, engine) -> None:
        self._engine = engine
        self._timeout = engine.config.worker_timeout
        self._ctx = None
        self._connections: Optional[list] = None
        self._processes: Optional[list] = None
        self._channels: Optional[List[shm.ShardChannel]] = None

    @property
    def started(self) -> bool:
        return self._connections is not None

    def start(self) -> None:
        if self.started:
            return
        num = self._engine.config.num_shards
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._ctx = multiprocessing.get_context()
        # Channels require fork: the children must inherit the parent's
        # mappings (a by-name attach would re-register with the resource
        # tracker and race the parent's unlink on CPython 3.11).
        if (
            self._engine.config.shm
            and self._ctx.get_start_method() == "fork"
        ):
            self._channels = shm.make_channels(num)
        self._connections = [None] * num
        self._processes = [None] * num
        for shard in range(num):
            self._spawn(shard)

    def _spawn(self, shard: int) -> None:
        engine = self._engine
        config = engine.config
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                child,
                shard,
                engine.state_factory,
                engine.cost_model,
                config.flow_cache_capacity if config.flow_cache else None,
                engine.registry_factory,
                engine.degrade,
                config.fault_plan if config.fault_plan else None,
                self._channels[shard] if self._channels else None,
                config.columnar,
            ),
            daemon=True,
        )
        process.start()
        child.close()
        self._connections[shard] = parent
        self._processes[shard] = process

    def close(self) -> None:
        if not self.started:
            return
        connections, processes = self._connections, self._processes
        channels, self._channels = self._channels, None
        self._connections = self._processes = None
        for connection in connections:
            try:
                connection.send(None)
            except OSError:  # the worker is already gone
                pass
        for process in processes:
            process.join(timeout=10)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5)
        for connection in connections:
            connection.close()
        # The parent is the only process that ever unlinks a segment.
        for channel in channels or ():
            channel.unlink()
            channel.close()

    def submit(self, shard, seq, indices, payloads, now) -> None:
        wire = [
            item if isinstance(item, bytes) else item.encode()
            for item in payloads
        ]
        if self._channels is not None:
            channel = self._channels[shard]
            slot = seq % channel.slots
            if channel.write_request(slot, b"".join(wire)):
                wire = ("shm", slot, [len(item) for item in wire])
        try:
            self._connections[shard].send((seq, indices, wire, now))
        except OSError:
            # Broken pipe: collect() finds the EOF behind whatever
            # replies the worker still managed to send.
            pass

    def collect(self, shard: int, blocking: bool) -> Optional[tuple]:
        connection = self._connections[shard]
        try:
            if not connection.poll(self._timeout if blocking else 0):
                if blocking:
                    raise WorkerDied(
                        f"heartbeat timeout ({self._timeout:g}s)"
                    )
                return None
            reply = connection.recv()
        except (EOFError, OSError):
            raise WorkerDied("pipe EOF (worker died)") from None
        outcomes = reply[2]
        if type(outcomes) is tuple:
            # Outcome bytes live in the reply frame; the pipe only
            # carried (decision, ports, length, failure) metadata.
            _, slot, size, meta = outcomes
            blob = self._channels[shard].read_reply(slot, size)
            reply = reply[:2] + ((blob, meta),) + reply[3:]
        return reply

    def respawn(self, shard: int) -> None:
        process = self._processes[shard]
        if process.is_alive():
            process.terminate()
        process.join(timeout=10)
        self._connections[shard].close()
        self._spawn(shard)

    def control(self, kind: str, value) -> list:
        for connection in self._connections:
            connection.send((kind, value))
        acks = []
        for shard, connection in enumerate(self._connections):
            if not connection.poll(self._timeout):
                raise EngineWorkerError(
                    f"shard {shard} {kind} ack timed out "
                    f"({self._timeout:g}s)"
                )
            tag, ack = connection.recv()
            if tag != kind + "-ack":  # pragma: no cover - protocol
                raise EngineWorkerError(
                    f"shard {shard} replied {tag!r} to {kind}"
                )
            acks.append(ack)
        return acks

    def state(self, shard: int) -> NodeState:
        raise SimulationError(
            "shard state lives in the worker processes on the process "
            "backend; only the serial backend can expose it"
        )
