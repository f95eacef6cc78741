"""The fabric runner: wiring and one conservative round loop.

A scenario is a set of named components plus directed
:class:`ChannelSpec` channels; :class:`FabricRun` wires them, runs the
conservative protocol to quiescence, and returns a
:class:`FabricReport`.

One loop, any placement.  Components are placed round-robin into
*groups*, one per process: ``processes=1`` is a single group in this
process (optionally stepped in a seed-shuffled order each round -- the
determinism property tests shuffle aggressively and assert identical
reports); ``processes=N`` puts one group in each of N spawned workers,
each behind a ``multiprocessing`` pipe.  Workers never talk to each
other: the coordinator routes Deliver and Advance batches between
groups, a plain request/response fan-out with no cross-worker ordering
concerns.  The same coordinator drives both placements, and
:meth:`_Group.step` is the only per-component step.

Scheduling is demand-driven: after the initial round, a component is
stepped only when a message reached it -- a component whose horizon
did not move cannot make progress, so stepping it is pure waste.  The
run is **quiescent** when no Deliver is in flight and every component's
backlog is empty; it is **stalled** (a :class:`~repro.errors.
FabricError`) when backlog remains but no message moved -- the
signature of a zero-lookahead cycle, which conservative sync cannot
execute.  Every group is closed on every exit path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import FabricError
from repro.fabric.messages import Deliver, Inject
from repro.fabric.sync import Component


@dataclass(frozen=True)
class ChannelSpec:
    """One directed channel: ``src`` out-port -> ``dst`` in-port.

    ``latency`` (seconds, > 0 unless the scenario is acyclic through
    this channel) is both the propagation delay added to every frame
    and the conservative lookahead that lets the receiver run ahead.
    """

    src: str
    src_port: int
    dst: str
    dst_port: int
    latency: float


def duplex(
    a: str, a_port: int, b: str, b_port: int, latency: float
) -> List[ChannelSpec]:
    """Both directions of a point-to-point fabric link."""
    return [
        ChannelSpec(a, a_port, b, b_port, latency),
        ChannelSpec(b, b_port, a, a_port, latency),
    ]


@dataclass
class FabricReport:
    """Everything one fabric run produced."""

    components: Dict[str, Dict[str, Any]]
    records: List[Tuple[float, str, str]]
    fingerprint: str
    counters: Dict[str, float]
    clocks: Dict[str, float]
    rounds: int
    processes: int

    @property
    def clock_skew(self) -> float:
        """Spread between the fastest and slowest component clock."""
        finite = [c for c in self.clocks.values() if c != float("inf")]
        if not finite:
            return 0.0
        return max(finite) - min(finite)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "components": self.components,
            "records": [list(r) for r in self.records],
            "fingerprint": self.fingerprint,
            "counters": self.counters,
            "clocks": self.clocks,
            "clock_skew": self.clock_skew,
            "rounds": self.rounds,
            "processes": self.processes,
        }


def records_fingerprint(
    records: Sequence[Tuple[float, str, str]]
) -> str:
    """Order-independent digest of a delivery-record set.

    Records are sorted before hashing: equal-timestamp deliveries at
    different components have no defined global order (components are
    causally independent below the horizon), so two equivalent runs may
    interleave them differently while agreeing on the set.
    """
    blob = json.dumps(sorted(records), separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _wire(
    components: Dict[str, Component], channels: Sequence[ChannelSpec]
) -> None:
    """Apply channel specs to component endpoints living here.

    Rank is the channel's index in scenario order -- the sender-decided
    tie-breaker every component uses to merge equal-time events.  In
    multiprocess runs each worker holds a subset of the components, so
    either endpoint may be absent.
    """
    for rank, spec in enumerate(channels):
        src = components.get(spec.src)
        if src is not None:
            src.add_output(
                spec.src_port, spec.dst, spec.dst_port, spec.latency, rank
            )
        dst = components.get(spec.dst)
        if dst is not None:
            dst.add_input(spec.src, spec.dst_port, rank)


class _Group:
    """The components placed in one process, wired and stepped as one.

    :meth:`step` is the fabric's only per-component step: a run in this
    process calls it directly, a worker calls it for the coordinator.
    """

    def __init__(
        self,
        factories: Dict[str, Callable[[], Component]],
        channels: Sequence[ChannelSpec],
        scheduler_seed: Optional[int] = None,
    ) -> None:
        self.components = {
            name: factory() for name, factory in factories.items()
        }
        _wire(self.components, channels)
        self._order = list(self.components)
        self._rng = random.Random(scheduler_seed) if scheduler_seed is not None else None
        self._reply: Any = None

    def step(
        self, messages: Sequence[Any], start: bool
    ) -> Tuple[List[Any], List[Any]]:
        """Accept ``messages``, then step every component that got mail
        (every component, after its ``start()``, when ``start`` is set)
        in wiring order, or seed-shuffled order; return the outbound
        messages and every component's ack."""
        components = self.components
        mailed = set()
        for message in messages:
            name = message.component if isinstance(message, Inject) else message.dst
            components[name].accept(message)
            mailed.add(name)
        if self._rng is not None:
            self._rng.shuffle(self._order)
        outbound: List[Any] = []
        for name in self._order:
            if start or name in mailed:
                component = components[name]
                if start:
                    component.start()
                component.step()
                outbound.extend(component.take_outbox())
                outbound.extend(component.promises())
        return outbound, [c.ack() for c in components.values()]

    def submit(self, command: str, messages: Sequence[Any] = ()) -> None:
        """Answer ``start``/``step``/``report`` now; :meth:`collect`
        returns the reply, as it does for a :class:`_Worker`."""
        self._reply = (
            {name: c.report() for name, c in self.components.items()}
            if command == "report"
            else self.step(messages, command == "start")
        )

    def collect(self) -> Any:
        return self._reply

    def close(self) -> None:
        for component in self.components.values():
            close = getattr(component, "close", None)
            if close is not None:
                close()

    def join(self) -> None:
        """Nothing outlives :meth:`close` in this process."""


class FabricRun:
    """One wired co-simulation scenario, ready to run.

    Parameters
    ----------
    factories:
        ``name -> zero-arg callable`` building each component.  For
        multiprocess runs the callables must be picklable (module-level
        functions or :func:`functools.partial` over them); instances
        then live in the workers and only reports come back.  For
        in-process runs the built components stay reachable via
        :attr:`components` (the conformance executor reads router state
        through this).
    channels:
        Directed :class:`ChannelSpec` wiring, in scenario order (the
        order *is* the deterministic event tie-breaker -- keep it
        stable across runs being compared).
    injections:
        Optional :class:`Inject` seeds routed before the first round.
    processes:
        1 = in-process; N > 1 = one group in each of that many spawned
        worker processes.
    scheduler_seed:
        In-process only: shuffle per-round step order with this seed
        (None keeps wiring order).  Reports must not depend on it.
        Workers step their groups in wiring order, so a seed together
        with ``processes > 1`` is refused rather than ignored.
    registry:
        Optional :class:`~repro.telemetry.metrics.MetricsRegistry`;
        the run publishes fabric message counters and per-component
        clock/skew gauges into it.
    """

    def __init__(
        self,
        factories: Dict[str, Callable[[], Component]],
        channels: Sequence[ChannelSpec],
        injections: Sequence[Inject] = (),
        processes: int = 1,
        scheduler_seed: Optional[int] = None,
        registry=None,
        max_rounds: int = 1_000_000,
    ) -> None:
        if not factories:
            raise FabricError("a fabric needs at least one component")
        if processes < 1:
            raise FabricError(f"processes must be >= 1, got {processes}")
        if scheduler_seed is not None and processes > 1:
            raise FabricError(
                "scheduler_seed shuffles the in-process scheduler only; "
                f"it cannot be combined with processes={processes}"
            )
        for spec in channels:
            if spec.src not in factories or spec.dst not in factories:
                raise FabricError(
                    f"channel {spec} references unknown components"
                )
        for message in injections:
            if message.component not in factories:
                raise FabricError(
                    f"injection for unknown component {message.component!r}"
                )
        self.factories = dict(factories)
        self.channels = list(channels)
        self.injections = list(injections)
        self.processes = processes
        self.scheduler_seed = scheduler_seed
        self.registry = registry
        self.max_rounds = max_rounds
        #: populated by in-process runs only
        self.components: Dict[str, Component] = {}

    def run(self) -> FabricReport:
        """Run the conservative protocol to quiescence over the groups.

        Each round submits its mail to every group that has some (all
        of them, started, in round one) and collects the replies in
        group order.  Reply order cannot change a report: components
        merge events by ``(time, rank, seq)`` and promises by max.
        """
        names = list(self.factories)
        placement = {
            name: index % self.processes for index, name in enumerate(names)
        }
        groups: List[Any] = []
        try:
            if self.processes == 1:
                groups.append(
                    _Group(self.factories, self.channels, self.scheduler_seed)
                )
                self.components = groups[0].components
            else:
                import multiprocessing as mp

                ctx = mp.get_context("spawn")
                for index in range(self.processes):
                    groups.append(_Worker(ctx, index))
                # The factories travel over the connection, not as spawn
                # arguments: start() writes those synchronously into the
                # child's start-up pipe, so factories bigger than the pipe
                # (the golden stubs carry their sends) would block each
                # start() until that worker finished importing, and the
                # workers would boot one after another instead of together.
                for index, worker in enumerate(groups):
                    mine = [n for n in names if placement[n] == index]
                    worker.open({n: self.factories[n] for n in mine}, self.channels)
            counters = {"delivers": 0.0, "advances": 0.0, "injects": float(len(self.injections))}
            inboxes: List[List[Any]] = [[] for _ in groups]
            for message in self.injections:
                inboxes[placement[message.component]].append(message)
            acks: Dict[str, Any] = {}
            active: Sequence[int] = range(len(groups))
            rounds = 0
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise FabricError(f"fabric exceeded {self.max_rounds} rounds")
                for index in active:
                    groups[index].submit(
                        "start" if rounds == 1 else "step", inboxes[index]
                    )
                    inboxes[index] = []
                sent = delivers = 0
                for index in active:
                    outbound, group_acks = groups[index].collect()
                    for ack in group_acks:
                        acks[ack.component] = ack
                    sent += len(outbound)
                    for message in outbound:
                        if isinstance(message, Deliver):
                            delivers += 1
                        inboxes[placement[message.dst]].append(message)
                counters["delivers"] += delivers
                counters["advances"] += sent - delivers
                # Quiescence: nothing buffered anywhere and no Deliver
                # in flight.  Advances alone cannot create events, and
                # without this cut they ping-pong ever-growing promises
                # forever (the classic null-message livelock endgame).
                if not delivers and not any(a.pending for a in acks.values()):
                    break
                active = [index for index, box in enumerate(inboxes) if box]
                if not active:
                    stuck = [name for name in names if acks[name].pending]
                    raise FabricError(
                        "fabric stalled with buffered events at "
                        f"{stuck} -- a zero-lookahead cycle cannot advance; "
                        "give every channel on the cycle a positive latency"
                    )
            for group in groups:
                group.submit("report")
            reports: Dict[str, Dict[str, Any]] = {}
            for group in groups:
                reports.update(group.collect())
        finally:
            for group in groups:
                group.close()
            for group in groups:
                group.join()
        records = sorted(
            tuple(r) for name in names for r in reports[name]["records"]
        )
        report = FabricReport(
            components={name: reports[name] for name in names},
            records=records,
            fingerprint=records_fingerprint(records),
            counters=counters,
            clocks={name: acks[name].clock for name in names},
            rounds=rounds,
            processes=self.processes,
        )
        if self.registry is not None:
            self._publish(report)
        return report

    def _publish(self, report: FabricReport) -> None:
        registry = self.registry
        for kind in ("delivers", "advances", "injects"):
            registry.counter(
                "fabric_messages_total",
                "Fabric protocol messages routed, by type.",
                labels=(("type", kind),),
            ).inc(int(report.counters[kind]))
        registry.counter(
            "fabric_rounds_total", "Fabric scheduler rounds run."
        ).inc(report.rounds)
        for name, clock in report.clocks.items():
            registry.gauge(
                "fabric_component_clock_seconds",
                "Final virtual clock per fabric component.",
                labels=(("component", name),),
            ).set(clock)
        registry.gauge(
            "fabric_clock_skew_seconds",
            "Virtual-clock spread across fabric components at the end "
            "of the run.",
        ).set(report.clock_skew)


class _Worker:
    """A :class:`_Group` in a spawned process, behind a pipe.

    It answers the same ``submit``/``collect`` calls as a group in this
    process.  A worker that dies without replying surfaces as a
    :class:`FabricError` naming it and the components it hosted.
    """

    def __init__(self, ctx, index: int) -> None:
        self.index = index
        self.names: List[str] = []
        self.conn, child = ctx.Pipe()
        self.process = ctx.Process(
            target=_serve_group, args=(child,), daemon=True
        )
        self.process.start()
        child.close()

    def open(self, factories, channels) -> None:
        self.names = list(factories)
        self._pipe(self.conn.send, (factories, channels))

    def submit(self, command: str, messages: Sequence[Any] = ()) -> None:
        self._pipe(self.conn.send, (command, messages))

    def collect(self) -> Any:
        status, payload = self._pipe(self.conn.recv)
        if status == "error":
            raise FabricError(f"fabric worker failed:\n{payload}")
        return payload

    def _pipe(self, operation, *args) -> Any:
        try:
            return operation(*args)
        except (EOFError, OSError) as exc:
            raise FabricError(
                f"fabric worker {self.index} hosting {self.names} died: "
                f"{exc!r}"
            ) from exc

    def close(self) -> None:
        try:
            self.conn.send(("stop", ()))
        except OSError:
            pass
        self.conn.close()

    def join(self) -> None:
        self.process.join(timeout=10)
        if self.process.is_alive():  # pragma: no cover - hard kill path
            self.process.terminate()
            self.process.join(timeout=5)


def _serve_group(conn) -> None:
    """Spawned worker main (module-level, so spawn can pickle it): one
    :class:`_Group` behind ``conn`` until ``stop``, then ``os._exit``:
    the coordinator joins it, and interpreter teardown is slow."""
    group = None
    stopped = False
    try:
        group = _Group(*conn.recv())
        for command, messages in iter(conn.recv, ("stop", ())):
            group.submit(command, messages)
            conn.send(("ok", group.collect()))
        stopped = True
    except EOFError:  # pragma: no cover - the coordinator is gone
        pass
    except BaseException:
        import traceback

        conn.send(("error", traceback.format_exc()))
    finally:
        if group is not None:
            group.close()
        conn.close()
    if stopped:
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
