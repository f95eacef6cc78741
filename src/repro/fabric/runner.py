"""The fabric runner: wiring, scheduling, and the multiprocess star.

A scenario is a set of named components plus directed
:class:`ChannelSpec` channels; :class:`FabricRun` wires them, runs the
conservative protocol to quiescence, and returns a
:class:`FabricReport`.

Two transports, one protocol:

- ``processes=1`` steps every component in this process (optionally in
  a seed-shuffled order each round -- the determinism property tests
  shuffle aggressively and assert identical reports);
- ``processes=N`` partitions components round-robin across worker
  processes joined to a star coordinator over ``multiprocessing``
  pipes.  Workers never talk to each other; the parent routes Deliver
  and Advance batches between them, which keeps the transport a plain
  request/response fan-out with no cross-worker ordering concerns.

Scheduling is demand-driven: after the initial round, a component is
stepped only when a message reached it -- a component whose horizon
did not move cannot make progress, so stepping it is pure waste.  The
run is **quiescent** when nothing is in flight and every component's
backlog is empty; it is **stalled** (a :class:`~repro.errors.
FabricError`) when backlog remains but no message moved -- the
signature of a zero-lookahead cycle, which conservative sync cannot
execute.
"""

from __future__ import annotations

import hashlib
import json
import random
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


def _route(
    messages: Sequence[Any], inboxes: Dict[str, List[Any]]
) -> int:
    """Sort protocol messages into per-destination inboxes."""
    for message in messages:
        dst = message.dst if not isinstance(message, Inject) else (
            message.component
        )
        if dst not in inboxes:
            raise FabricError(f"message for unknown component {dst!r}")
        inboxes[dst].append(message)
    return len(messages)


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
        1 = in-process; N > 1 = star coordinator over that many worker
        processes.
    scheduler_seed:
        In-process only: shuffle per-round step order with this seed
        (None keeps wiring order).  Reports must not depend on it.  The
        star steps its workers in a fixed order, so a seed together
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
        self.factories = dict(factories)
        self.channels = list(channels)
        self.injections = list(injections)
        self.processes = processes
        self.scheduler_seed = scheduler_seed
        self.registry = registry
        self.max_rounds = max_rounds
        #: populated by in-process runs only
        self.components: Dict[str, Component] = {}

    # ------------------------------------------------------------------
    def run(self) -> FabricReport:
        if self.processes == 1:
            report = self._run_local()
        else:
            report = self._run_star()
        if self.registry is not None:
            self._publish(report)
        return report

    # ------------------------------------------------------------------
    # in-process transport
    # ------------------------------------------------------------------
    def _run_local(self) -> FabricReport:
        components = {
            name: factory() for name, factory in self.factories.items()
        }
        self.components = components
        _wire(components, self.channels)
        rng = (
            random.Random(self.scheduler_seed)
            if self.scheduler_seed is not None
            else None
        )
        counters = {
            "delivers": 0.0,
            "advances": 0.0,
            "injects": float(len(self.injections)),
        }

        inboxes: Dict[str, List[Any]] = {name: [] for name in components}
        _route(self.injections, inboxes)
        order = list(components)
        rounds = 0
        # Round zero steps everyone (sources flush, promises seed the
        # cascade); afterwards only components that received messages.
        ready = set(order)
        while True:
            rounds += 1
            if rounds > self.max_rounds:
                raise FabricError(
                    f"fabric exceeded {self.max_rounds} rounds"
                )
            if rng is not None:
                rng.shuffle(order)
            outbound: List[Any] = []
            for name in order:
                if name not in ready:
                    continue
                component = components[name]
                for message in inboxes[name]:
                    component.accept(message)
                inboxes[name].clear()
                if rounds == 1:
                    component.start()
                component.step()
                outbound.extend(component.take_outbox())
                outbound.extend(component.promises())
            for message in outbound:
                if isinstance(message, Deliver):
                    counters["delivers"] += 1
                else:
                    counters["advances"] += 1
            _route(outbound, inboxes)
            ready = {name for name, box in inboxes.items() if box}
            backlog = sum(c.pending() for c in components.values())
            # Quiescence: no buffered events anywhere and no Deliver in
            # flight.  Advances alone cannot create events, and without
            # this cut they ping-pong ever-growing promises forever
            # (the classic null-message livelock endgame).
            if backlog == 0 and not any(
                isinstance(m, (Deliver, Inject))
                for box in inboxes.values()
                for m in box
            ):
                break
            if ready:
                continue
            stuck = [
                name for name, c in components.items() if c.pending()
            ]
            raise FabricError(
                "fabric stalled with buffered events at "
                f"{stuck} -- a zero-lookahead cycle cannot advance; "
                "give every channel on the cycle a positive latency"
            )
        for component in components.values():
            close = getattr(component, "close", None)
            if close is not None:
                close()
        return self._finish(
            {name: c.report() for name, c in components.items()},
            {name: c.clock for name, c in components.items()},
            counters,
            rounds,
        )

    # ------------------------------------------------------------------
    # multiprocess star transport
    # ------------------------------------------------------------------
    def _run_star(self) -> FabricReport:
        import multiprocessing as mp
        from multiprocessing.connection import wait as conn_wait

        ctx = mp.get_context("spawn")
        names = list(self.factories)
        placement = {
            name: index % self.processes
            for index, name in enumerate(names)
        }
        pipes = []
        workers = []
        try:
            for index in range(self.processes):
                parent_end, child_end = ctx.Pipe()
                proc = ctx.Process(
                    target=_star_worker, args=(child_end,), daemon=True
                )
                proc.start()
                child_end.close()
                pipes.append(parent_end)
                workers.append(proc)
            # The factories travel over the connection, not as spawn
            # arguments: start() writes those synchronously into the
            # child's start-up pipe, so factories bigger than the pipe
            # (the golden stubs carry their sends) would block each
            # start() until that worker finished importing, and the
            # workers would boot one after another instead of together.
            for index, pipe in enumerate(pipes):
                mine = {
                    n: self.factories[n]
                    for n in names
                    if placement[n] == index
                }
                pipe.send((mine, self.channels))

            counters = {
                "delivers": 0.0,
                "advances": 0.0,
                "injects": float(len(self.injections)),
            }
            inboxes: Dict[int, List[Any]] = {
                i: [] for i in range(self.processes)
            }
            for message in self.injections:
                inboxes[placement[message.component]].append(message)

            rounds = 0
            acks: Dict[str, Any] = {}
            # Round zero starts every worker; then demand-driven.
            active = set(range(self.processes))
            while True:
                rounds += 1
                if rounds > self.max_rounds:
                    raise FabricError(
                        f"fabric exceeded {self.max_rounds} rounds"
                    )
                waiting = []
                for index in sorted(active):
                    batch = inboxes[index]
                    inboxes[index] = []
                    pipes[index].send(
                        ("start" if rounds == 1 else "step", batch)
                    )
                    waiting.append(pipes[index])
                outbound: List[Any] = []
                while waiting:
                    for conn in conn_wait(waiting):
                        status, payload = conn.recv()
                        if status == "error":
                            raise FabricError(
                                f"fabric worker failed:\n{payload}"
                            )
                        messages, worker_acks = payload
                        outbound.extend(messages)
                        for ack in worker_acks:
                            acks[ack.component] = ack
                        waiting.remove(conn)
                for message in outbound:
                    if isinstance(message, Deliver):
                        counters["delivers"] += 1
                    else:
                        counters["advances"] += 1
                    inboxes[placement[message.dst]].append(message)
                active = {
                    index for index, box in inboxes.items() if box
                }
                backlog = sum(ack.pending for ack in acks.values())
                # Same quiescence cut as the in-process loop: only a
                # Deliver (or Inject) can create work, so advances
                # still in flight with zero backlog mean we are done.
                if backlog == 0 and not any(
                    isinstance(m, (Deliver, Inject))
                    for box in inboxes.values()
                    for m in box
                ):
                    break
                if active:
                    continue
                stuck = sorted(
                    ack.component
                    for ack in acks.values()
                    if ack.pending
                )
                raise FabricError(
                    "fabric stalled with buffered events at "
                    f"{stuck} -- a zero-lookahead cycle cannot "
                    "advance; give every channel on the cycle a "
                    "positive latency"
                )

            reports: Dict[str, Dict[str, Any]] = {}
            for pipe in pipes:
                pipe.send(("report", None))
            for pipe in pipes:
                status, payload = pipe.recv()
                if status == "error":
                    raise FabricError(
                        f"fabric worker failed:\n{payload}"
                    )
                reports.update(payload)
            clocks = {
                name: acks[name].clock if name in acks else 0.0
                for name in names
            }
            return self._finish(reports, clocks, counters, rounds)
        finally:
            for pipe in pipes:
                try:
                    pipe.send(("stop", None))
                except (BrokenPipeError, OSError):
                    pass
                pipe.close()
            for proc in workers:
                proc.join(timeout=10)
                if proc.is_alive():  # pragma: no cover - hard kill path
                    proc.terminate()
                    proc.join(timeout=5)

    # ------------------------------------------------------------------
    def _finish(
        self,
        reports: Dict[str, Dict[str, Any]],
        clocks: Dict[str, float],
        counters: Dict[str, float],
        rounds: int,
    ) -> FabricReport:
        records: List[Tuple[float, str, str]] = []
        for report in reports.values():
            records.extend(tuple(r) for r in report.get("records", []))
        records.sort()
        return FabricReport(
            components=reports,
            records=records,
            fingerprint=records_fingerprint(records),
            counters=counters,
            clocks=clocks,
            rounds=rounds,
            processes=self.processes,
        )

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


# ----------------------------------------------------------------------
# worker main (module-level: must be picklable for spawn)
# ----------------------------------------------------------------------
def _star_worker(conn) -> None:
    """One star worker: receive its factories, build, wire, then serve
    step requests."""
    try:
        factories, channels = conn.recv()
        components = {
            name: factory() for name, factory in factories.items()
        }
        _wire(components, channels)
    except BaseException:  # pragma: no cover - constructor failures
        import traceback

        conn.send(("error", traceback.format_exc()))
        conn.close()
        return
    while True:
        try:
            command, payload = conn.recv()
        except EOFError:  # pragma: no cover - parent died
            break
        try:
            if command in ("start", "step"):
                outbound: List[Any] = []
                inboxes: Dict[str, List[Any]] = {
                    name: [] for name in components
                }
                _route(payload, inboxes)
                for name, component in components.items():
                    for message in inboxes[name]:
                        component.accept(message)
                    if command == "start":
                        component.start()
                    elif not inboxes[name]:
                        continue
                    component.step()
                    outbound.extend(component.take_outbox())
                    outbound.extend(component.promises())
                acks = [c.ack() for c in components.values()]
                conn.send(("ok", (outbound, acks)))
            elif command == "report":
                conn.send(
                    ("ok", {n: c.report() for n, c in components.items()})
                )
            elif command == "stop":
                break
            else:  # pragma: no cover - defensive
                raise FabricError(f"unknown command {command!r}")
        except BaseException:
            import traceback

            conn.send(("error", traceback.format_exc()))
    for component in components.values():
        close = getattr(component, "close", None)
        if close is not None:
            try:
                close()
            except Exception:  # pragma: no cover
                pass
    conn.close()
