"""The differential executor matrix: every way this repo runs a packet.

The matrix is declared as four axes -- front x input kind x host x
degrade policy -- plus the standalone PISA ``dataplane`` cell (DESIGN.md
3.10 tabulates them).  Each :class:`Host` declares the axis values it
supports and has one runner; a cell's name and comparison rules are
derived from its axis values (:func:`cell_spec`), never set by hand.
:data:`ALL_CELLS` is the supported product, :data:`DEFAULT_EXECUTORS`
the declared subset tier-1, the CLI and the fuzzer run.

Every cell turns a :class:`Scenario` plus wire-encoded packets into a
:class:`WireOutcome` per packet, optional notes and model-cycle
triples, and a node-state fingerprint.  Normalization rules (the
"equivalence" contract):

- A packet whose processing *raises* (truncated header, field range
  violation) normalizes to ``("error", (), None, ExceptionClassName)``
  with a ``quarantined: Class: message`` note -- exactly the verdict
  :func:`repro.core.processor.poison_result` produces, so quarantining
  batch paths and raise-through per-packet paths compare equal.
- A FORWARD outcome carries the full rewritten wire bytes; everything
  else carries ``None``.
- ``reason`` is the :class:`ProcessResult.failure` taxonomy (``limit``
  / ``state`` / ``unsupported`` / exception class / None).
- State is compared structurally -- generation counters plus the PIT
  and content-store contents -- not object-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.conformance.reference import ReferenceInterpreter
from repro.conformance.scenarios import Scenario
from repro.core.flowcache import FlowDecisionCache
from repro.core.packet import DipPacket
from repro.core.processor import (
    Decision,
    ProcessResult,
    RouterProcessor,
    poison_result,
)
from repro.core.registry import default_registry
from repro.core.state import NodeState
from repro.dataplane.dip_pipeline import DipPipeline
from repro.engine import EngineConfig, ForwardingEngine
from repro.errors import CodecError, PipelineConstraintError


class WireOutcome(NamedTuple):
    """What one executor did to one packet, in wire terms."""

    decision: str
    ports: Tuple[int, ...]
    packet: Optional[bytes]
    reason: Optional[str]


@dataclass
class ExecutionResult:
    """One executor's verdicts over one wire list.

    ``outcomes[i] is None`` means the executor produced no verdict for
    packet *i*: out of its domain on a ``domain_limited`` cell, a lost
    packet everywhere else (see :func:`repro.conformance.differ.diff_case`).
    """

    outcomes: List[Optional[WireOutcome]]
    notes: Optional[List[Optional[Tuple[str, ...]]]] = None
    cycles: Optional[List[Optional[Tuple[int, int, int]]]] = None
    state: Optional[dict] = None


def outcome_from_result(result: ProcessResult) -> WireOutcome:
    packet = result.packet
    return WireOutcome(
        result.decision.value,
        tuple(result.ports),
        packet.encode() if packet is not None else None,
        result.failure,
    )


def wire_outcomes(outcomes) -> List[Optional[WireOutcome]]:
    """Engine ``PacketOutcome``s as WireOutcomes (None = never processed)."""
    return [
        None
        if outcome is None
        else WireOutcome(
            outcome.decision.value,
            tuple(outcome.ports),
            outcome.packet,
            outcome.reason,
        )
        for outcome in outcomes
    ]


# ----------------------------------------------------------------------
# node-state fingerprinting
# ----------------------------------------------------------------------
def state_fingerprint(state: NodeState) -> dict:
    """A structural, comparison-stable digest of mutable node state.

    Covers everything packet walks mutate: the PIT and content store
    contents, every table's generation counter, the node generation and
    the telemetry record count.  Reads private containers on purpose --
    the fingerprint must see exactly what the next packet would see.
    """

    def name_key(name) -> str:
        return "/".join(component.hex() for component in name.components)

    pit = sorted(
        [
            name_key(name),
            sorted(entry.in_ports),
            sorted(entry.nonces),
            entry.expires_at,
        ]
        for name, entry in state.pit._entries.items()
    )
    content_store = sorted(
        name_key(name) for name in state.content_store._store
    )
    return {
        "generation": state.generation,
        "default_port": state.default_port,
        "fib_v4_generation": state.fib_v4.generation,
        "fib_v6_generation": state.fib_v6.generation,
        "name_fib_digest_generation": state.name_fib_digest.generation,
        "name_fib_generation": state.name_fib.generation,
        "pit": pit,
        "content_store": content_store,
        "telemetry_records": len(state.telemetry),
    }


# ----------------------------------------------------------------------
# the axes
# ----------------------------------------------------------------------
FRONTS = ("process", "process-batch", "flow-cache", "columnar")
INPUTS = ("raw", "packets", "interleaved")
DEGRADES = ("none", "drop", "pass-to-host", "best-effort-ip")
#: The fronts an engine worker can put before its walk.
ENGINE_FRONTS = ("process-batch", "flow-cache", "columnar")


class Cell(NamedTuple):
    """One point of the matrix: a value per axis."""

    front: str
    input: str
    host: str
    degrade: str


def _inputs(kind: str, wires: List[bytes]) -> list:
    """The wires as the input axis hands them to the front.

    A wire that does not decode stays raw bytes -- there is no
    ``DipPacket`` for it -- so malformed traffic reaches every kind.
    """
    items = list(wires)
    if kind != "raw":
        step = 1 if kind == "packets" else 2
        for index in range(step - 1, len(items), step):
            try:
                items[index] = DipPacket.decode(items[index])
            except CodecError:
                pass
    return items


def _results(
    results: List[ProcessResult], state: NodeState
) -> ExecutionResult:
    return ExecutionResult(
        [outcome_from_result(result) for result in results],
        [result.notes for result in results],
        # Quarantined packets never finished a walk; their zeroed
        # cycle fields are bookkeeping, not semantics.
        [
            None
            if result.decision is Decision.ERROR
            else (
                result.cycles,
                result.cycles_sequential,
                result.cycles_parallel,
            )
            for result in results
        ],
        state_fingerprint(state),
    )


def _each(process, items) -> List[ProcessResult]:
    """One walk per packet; a raise becomes the quarantine verdict."""
    results = []
    for item in items:
        try:
            results.append(process(item))
        except Exception as exc:
            results.append(poison_result(exc))
    return results


def run_reference(
    scenario: Scenario, wires: List[bytes], cost_model: Optional[object] = None
) -> ExecutionResult:
    """The oracle: the naive Algorithm 1 interpreter, packet by packet."""
    interpreter = ReferenceInterpreter(
        scenario.state(), registry=scenario.registry(), cost_model=cost_model
    )
    return _results(_each(interpreter.process, wires), interpreter.state)


def _engine_config(cell: Cell, **shape) -> EngineConfig:
    return EngineConfig(
        batch_size=16,
        flow_cache=cell.front == "flow-cache",
        columnar=cell.front == "columnar",
        degrade=None if cell.degrade == "none" else cell.degrade,
        **shape,
    )


# ----------------------------------------------------------------------
# one runner per host
# ----------------------------------------------------------------------
def _run_bare(cell: Cell, scenario, wires, cost_model) -> ExecutionResult:
    processor = RouterProcessor(
        scenario.state(),
        registry=scenario.registry(),
        cost_model=cost_model,
        flow_cache=FlowDecisionCache() if cell.front == "flow-cache" else None,
        quarantine=True,
    )
    items = _inputs(cell.input, wires)
    if cell.front == "process":
        return _results(_each(processor.process, items), processor.state)
    front = processor
    if cell.front == "columnar":
        # Falls back to the scalar walk for anything the kernels cannot
        # express (or without numpy), so the cell is always meaningful.
        from repro.engine.columnar import ColumnarSpecializer

        front = ColumnarSpecializer(processor)
    return _results(
        front.process_batch(items, collect_notes=True), processor.state
    )


def _run_engine(
    backend: str, num_shards: int, cell: Cell, scenario, wires, cost_model
) -> ExecutionResult:
    engine = ForwardingEngine(
        scenario.state_factory,
        cost_model=cost_model,
        config=_engine_config(cell, backend=backend, num_shards=num_shards),
        registry_factory=scenario.registry_factory,
    )
    report = engine.run(_inputs(cell.input, wires))
    return ExecutionResult(
        wire_outcomes(report.outcomes),
        state=state_fingerprint(engine.shard_state(0))
        if num_shards == 1 else None,
    )


def _run_serve(cell: Cell, scenario, wires, cost_model) -> ExecutionResult:
    """The serving daemon's framing+batching path, driven synchronously.

    Wires go through :class:`repro.serve.core.ServeCore` exactly as
    the daemon drives it -- submit to the ingress queue, flush in
    ``batch_max`` batches through a persistent engine -- minus the
    sockets.  ``max_inflight`` is sized to the corpus and ``now`` is
    pinned to the timeless 0.0 so admission control and TTL expiry
    (the daemon's operational features) cannot alter Algorithm 1
    verdicts.  The verdict is read back from the encoded reply, so
    codec drift is an ordinary divergence; only ``reason``, which the
    reply format does not carry, comes from the engine outcome.  A
    shed packet or an unreadable reply is a missing outcome.
    """
    from repro.serve.config import ServeConfig
    from repro.serve.core import ServeCore, decode_reply

    core = ServeCore(
        ServeConfig(
            shards=1,
            backend="serial",
            batch_max=16,
            max_inflight=max(len(wires), 1),
            ring_capacity=max(len(wires), 16),
            flow_cache=cell.front == "flow-cache",
        ),
        state_factory=scenario.state_factory,
        registry_factory=scenario.registry_factory,
        cost_model=cost_model,
    )
    outcomes: List[Optional[WireOutcome]] = [None] * len(wires)
    try:
        if cell.degrade != "none":
            core.engine.set_degrade(cell.degrade)
        for index, wire in enumerate(wires):
            core.submit(wire, index)
        collected: List[Tuple[int, object]] = []
        replies = core.drain(now=0.0, collect=collected)
        reasons = {
            index: outcome.reason
            for index, outcome in collected
            if outcome is not None
        }
        for index, payload in replies:
            try:
                status, ports, packet = decode_reply(payload)
            except ValueError:
                continue
            outcomes[index] = WireOutcome(
                status, ports, packet or None, reasons.get(index)
            )
        state = state_fingerprint(core.engine.shard_state(0))
    finally:
        core.close()
    return ExecutionResult(outcomes, state=state)


def _run_fabric(cell: Cell, scenario, wires, cost_model) -> ExecutionResult:
    """An engine-backed router driven over the co-simulation fabric.

    A source host injects every wire at virtual time 0 (per-channel
    sequence numbers keep input order through the synchronizer); the
    router's engine walks them on the fabric's virtual clock and every
    egress loops back to the source.  Zero-latency channels are legal
    because the source closes its outputs after flushing (the
    acyclic-termination rule), so every walk runs at ``now == 0.0``,
    like the timeless reference interpreter.  This host proves the
    message protocol, conservative synchronizer and engine adapter are
    decision-transparent -- byte-identical verdicts, state and all.
    """
    from repro.fabric.components import EngineRouterComponent, HostComponent
    from repro.fabric.messages import KIND_DIP, Inject
    from repro.fabric.runner import ChannelSpec, FabricRun

    def make_source():
        injections = [
            Inject(0.0, "source", 0, KIND_DIP, wire, len(wire), seq)
            for seq, wire in enumerate(wires)
        ]
        return HostComponent("source", injections)

    def make_router():
        component = EngineRouterComponent(
            "router",
            scenario.state_factory,
            registry_factory=scenario.registry_factory,
            cost_model=cost_model,
            config=_engine_config(cell, num_shards=1, backend="serial"),
            keep_outcomes=True,
        )
        # FIB egress ports are scenario-defined ints; loop every one of
        # them back to the source over the single reverse channel.
        component.default_out = 0
        return component

    run = FabricRun(
        {"source": make_source, "router": make_router},
        [
            ChannelSpec("source", 0, "router", 0, 0.0),
            ChannelSpec("router", 0, "source", 0, 0.0),
        ],
    )
    run.run()
    router = run.components["router"]
    return ExecutionResult(
        wire_outcomes(router.outcomes),
        state=state_fingerprint(router.state()),
    )


def _run_dataplane(
    cell: Cell, scenario, wires, cost_model
) -> ExecutionResult:
    registry = scenario.registry()
    pipeline = DipPipeline(
        scenario.state(),
        registry if registry is not None else default_registry(),
    )
    outcomes: List[Optional[WireOutcome]] = []
    for wire in wires:
        try:
            result = pipeline.process(wire)
        except PipelineConstraintError:
            # Beyond the parse graph's unroll budget: out of the PISA
            # model's domain, not a divergence.
            outcomes.append(None)
        except Exception as exc:
            outcomes.append(outcome_from_result(poison_result(exc)))
        else:
            outcomes.append(WireOutcome(
                result.decision.value, tuple(result.ports), result.wire, None
            ))
    return ExecutionResult(outcomes, state=state_fingerprint(pipeline.state))


@dataclass(frozen=True)
class Host:
    """One host axis value: its runner and the values it supports."""

    run: Callable[..., ExecutionResult]
    fronts: Tuple[str, ...]
    inputs: Tuple[str, ...] = INPUTS
    degrades: Tuple[str, ...] = DEGRADES
    #: Exactly one node state exists after the run and can be read.
    one_shard: bool = True


HOSTS: Dict[str, Host] = {
    "bare": Host(_run_bare, FRONTS, degrades=("none",)),
    "engine-serial": Host(partial(_run_engine, "serial", 1), ENGINE_FRONTS),
    "engine-serial-sharded": Host(
        partial(_run_engine, "serial", 4), ENGINE_FRONTS, one_shard=False
    ),
    "engine-process": Host(
        partial(_run_engine, "process", 2), ENGINE_FRONTS, one_shard=False
    ),
    # Datagrams are bytes, and ServeConfig has no columnar switch.
    "serve": Host(_run_serve, ("process-batch", "flow-cache"), ("raw",)),
    "fabric": Host(_run_fabric, ENGINE_FRONTS, ("raw",)),
    # The standalone PISA cell, outside the axes: the pipeline is its
    # own front, parses wires itself and has no degrade policy.
    "dataplane": Host(_run_dataplane, ("pisa",), ("raw",), ("none",)),
}


# ----------------------------------------------------------------------
# cell derivation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutorSpec:
    """One optimized path plus the comparison rules that apply to it."""

    name: str
    run: Callable[[Scenario, List[bytes], Optional[object]], ExecutionResult]
    #: Compare ProcessResult.failure / PacketOutcome.reason.
    compare_reason: bool = True
    #: Compare the per-FN trace notes (full spec fidelity).
    compare_notes: bool = False
    #: Compare (effective, sequential, parallel) model-cycle triples.
    compare_cycles: bool = False
    #: Compare the post-run node-state fingerprint.
    compare_state: bool = True
    #: Degrade policy the executor runs under; the differ transforms
    #: the reference expectation accordingly (workers._degraded_outcome).
    degrade: Optional[str] = None
    #: The executor models only part of Algorithm 1: a None outcome is
    #: out of its domain, and so is a packet the reference dropped for
    #: a processing limit (the PISA pipeline enforces no budgets).
    domain_limited: bool = False
    #: The matrix point this spec was derived from (None for ad-hoc
    #: executors such as the test suite's mutants).
    cell: Optional[Cell] = None


def cell_name(cell: Cell) -> str:
    """``host/front/input/degrade``, leaving out bare, the host's first
    front, ``raw`` and ``none``: ``process``, ``engine-serial``,
    ``engine-serial/flow-cache``, ``engine-process/packets``."""
    parts = [cell.front] if cell.host == "bare" else [cell.host]
    if cell.host != "bare" and cell.front != HOSTS[cell.host].fronts[0]:
        parts.append(cell.front)
    parts += [
        value for value in (cell.input, cell.degrade)
        if value not in ("raw", "none")
    ]
    return "/".join(parts)


def cell_spec(cell: Cell) -> ExecutorSpec:
    host = HOSTS[cell.host]
    bare = cell.host == "bare"
    pisa = cell.host == "dataplane"
    return ExecutorSpec(
        cell_name(cell),
        partial(host.run, cell),
        compare_reason=not pisa,
        compare_notes=bare,
        compare_cycles=bare,
        compare_state=host.one_shard,
        degrade=None if cell.degrade == "none" else cell.degrade,
        domain_limited=pisa,
        cell=cell,
    )


#: Every supported combination, host by host.
ALL_CELLS: Tuple[ExecutorSpec, ...] = tuple(
    cell_spec(Cell(front, kind, name, degrade))
    for name, host in HOSTS.items()
    for front in host.fronts
    for kind in host.inputs
    for degrade in host.degrades
)

_BY_CELL = {spec.cell: spec for spec in ALL_CELLS}

#: The matrix tier-1, the CLI and the fuzzer run: every configuration
#: the repo has carried (DESIGN.md 3.10 maps the old executor names),
#: plus one bare and one process-engine cell of the other input kinds.
DEFAULT_EXECUTORS: Tuple[ExecutorSpec, ...] = tuple(
    _BY_CELL[Cell(*axes)]
    for axes in (
        ("process", "raw", "bare", "none"),
        ("process-batch", "raw", "bare", "none"),
        ("flow-cache", "raw", "bare", "none"),
        ("columnar", "raw", "bare", "none"),
        ("process-batch", "raw", "engine-serial", "none"),
        ("process-batch", "raw", "engine-serial-sharded", "none"),
        ("flow-cache", "raw", "engine-serial", "none"),
        ("process-batch", "raw", "engine-process", "none"),
        ("process-batch", "raw", "engine-serial", "drop"),
        ("process-batch", "raw", "engine-serial", "pass-to-host"),
        ("process-batch", "raw", "engine-serial", "best-effort-ip"),
        ("pisa", "raw", "dataplane", "none"),
        ("process-batch", "raw", "serve", "none"),
        ("process-batch", "raw", "fabric", "none"),
        ("flow-cache", "interleaved", "bare", "none"),
        ("process-batch", "packets", "engine-process", "none"),
    )
)

EXECUTOR_NAMES: Tuple[str, ...] = tuple(
    spec.name for spec in DEFAULT_EXECUTORS
)


def executors_by_name(names) -> Tuple[ExecutorSpec, ...]:
    """Resolve a name list against :data:`ALL_CELLS`, in its order."""
    wanted = set(names)
    unknown = wanted - {spec.name for spec in ALL_CELLS}
    if unknown:
        raise ValueError(
            f"unknown executors: {sorted(unknown)} "
            f"(default matrix: {list(EXECUTOR_NAMES)}; any of the "
            f"{len(ALL_CELLS)} cells of ALL_CELLS is accepted)"
        )
    return tuple(spec for spec in ALL_CELLS if spec.name in wanted)
