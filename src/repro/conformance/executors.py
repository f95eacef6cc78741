"""The differential executor matrix: every way this repo runs a packet.

Each :class:`ExecutorSpec` wraps one optimized execution path behind a
single normalized interface: feed it a :class:`Scenario` plus a list of
wire-encoded packets, get back a :class:`WireOutcome` per packet (what
happened on the wire), optional per-packet notes and model-cycle
triples, and a structural fingerprint of the node state after the run.

Normalization rules (the "equivalence" contract, DESIGN.md 3.10):

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
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.conformance.reference import ReferenceInterpreter
from repro.conformance.scenarios import Scenario
from repro.core.flowcache import FlowDecisionCache
from repro.core.packet import DipPacket
from repro.core.processor import ProcessResult, RouterProcessor
from repro.core.registry import default_registry
from repro.core.state import NodeState
from repro.dataplane.dip_pipeline import DipPipeline
from repro.engine import EngineConfig, ForwardingEngine
from repro.errors import PipelineConstraintError


class WireOutcome(NamedTuple):
    """What one executor did to one packet, in wire terms."""

    decision: str
    ports: Tuple[int, ...]
    packet: Optional[bytes]
    reason: Optional[str]


@dataclass
class ExecutionResult:
    """One executor's verdicts over one wire list.

    ``outcomes[i] is None`` means the executor skipped packet *i* as
    out of its domain (e.g. the PISA pipeline's unroll budget); the
    differ does not count skipped packets against it, but state is then
    excluded from comparison too (the skipped walk never happened).
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


def outcome_from_exception(exc: BaseException) -> WireOutcome:
    """Normalize a raised exception to the quarantine verdict."""
    return WireOutcome("error", (), None, type(exc).__name__)


def exception_notes(exc: BaseException) -> Tuple[str, ...]:
    return (f"quarantined: {type(exc).__name__}: {exc}",)


def _cycles_of(result: ProcessResult) -> Tuple[int, int, int]:
    return (result.cycles, result.cycles_sequential, result.cycles_parallel)


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
# executor runners
# ----------------------------------------------------------------------
def run_reference(
    scenario: Scenario, wires: List[bytes], cost_model: Optional[object] = None
) -> ExecutionResult:
    """The oracle: the naive Algorithm 1 interpreter, packet by packet."""
    interpreter = ReferenceInterpreter(
        scenario.state(), registry=scenario.registry(), cost_model=cost_model
    )
    outcomes: List[Optional[WireOutcome]] = []
    notes: List[Optional[Tuple[str, ...]]] = []
    cycles: List[Optional[Tuple[int, int, int]]] = []
    for wire in wires:
        try:
            result = interpreter.process(wire)
        except Exception as exc:  # normalize to the quarantine verdict
            outcomes.append(outcome_from_exception(exc))
            notes.append(exception_notes(exc))
            cycles.append(None)
        else:
            outcomes.append(outcome_from_result(result))
            notes.append(result.notes)
            cycles.append(_cycles_of(result))
    return ExecutionResult(
        outcomes, notes, cycles, state_fingerprint(interpreter.state)
    )


def _run_process(scenario, wires, cost_model) -> ExecutionResult:
    processor = RouterProcessor(
        scenario.state(), registry=scenario.registry(), cost_model=cost_model
    )
    outcomes: List[Optional[WireOutcome]] = []
    notes: List[Optional[Tuple[str, ...]]] = []
    cycles: List[Optional[Tuple[int, int, int]]] = []
    for wire in wires:
        try:
            result = processor.process(wire)
        except Exception as exc:
            outcomes.append(outcome_from_exception(exc))
            notes.append(exception_notes(exc))
            cycles.append(None)
        else:
            outcomes.append(outcome_from_result(result))
            notes.append(result.notes)
            cycles.append(_cycles_of(result))
    return ExecutionResult(
        outcomes, notes, cycles, state_fingerprint(processor.state)
    )


def _run_batch(
    scenario, wires, cost_model, flow_cache: bool, columnar: bool = False
) -> ExecutionResult:
    processor = RouterProcessor(
        scenario.state(),
        registry=scenario.registry(),
        cost_model=cost_model,
        flow_cache=FlowDecisionCache() if flow_cache else None,
        quarantine=True,
    )
    if columnar:
        from repro.engine.columnar import ColumnarSpecializer

        results = ColumnarSpecializer(processor).process_batch(
            wires, collect_notes=True
        )
    else:
        results = processor.process_batch(wires, collect_notes=True)
    outcomes: List[Optional[WireOutcome]] = []
    notes: List[Optional[Tuple[str, ...]]] = []
    cycles: List[Optional[Tuple[int, int, int]]] = []
    for result in results:
        outcomes.append(outcome_from_result(result))
        notes.append(result.notes)
        # Quarantined packets never finished a walk; their zeroed
        # cycle fields are bookkeeping, not semantics.
        cycles.append(
            None if result.decision.value == "error" else _cycles_of(result)
        )
    return ExecutionResult(
        outcomes, notes, cycles, state_fingerprint(processor.state)
    )


def _run_process_batch(scenario, wires, cost_model) -> ExecutionResult:
    return _run_batch(scenario, wires, cost_model, flow_cache=False)


def _run_flow_cache(scenario, wires, cost_model) -> ExecutionResult:
    return _run_batch(scenario, wires, cost_model, flow_cache=True)


def _run_columnar(scenario, wires, cost_model) -> ExecutionResult:
    """The batch specializer over the quarantining batch processor.

    Falls back to the scalar path internally for anything the kernels
    cannot express, so the executor is meaningful even without numpy
    (it then *is* the scalar batch path, and the matrix still passes).
    """
    return _run_batch(
        scenario, wires, cost_model, flow_cache=False, columnar=True
    )


def _run_engine(
    scenario,
    wires,
    cost_model,
    backend: str = "serial",
    num_shards: int = 1,
    flow_cache: bool = False,
    degrade: Optional[str] = None,
) -> ExecutionResult:
    config = EngineConfig(
        num_shards=num_shards,
        backend=backend,
        batch_size=16,
        flow_cache=flow_cache,
        degrade=degrade,
    )
    engine = ForwardingEngine(
        scenario.state_factory,
        cost_model=cost_model,
        config=config,
        registry_factory=scenario.registry_factory,
    )
    report = engine.run(wires)
    outcomes: List[Optional[WireOutcome]] = [
        (
            WireOutcome(
                outcome.decision.value,
                tuple(outcome.ports),
                outcome.packet,
                outcome.reason,
            )
            if outcome is not None
            else None
        )
        for outcome in report.outcomes
    ]
    state = None
    if backend == "serial" and num_shards == 1:
        state = state_fingerprint(engine.shard_state(0))
    return ExecutionResult(outcomes, state=state)


def _run_engine_serial(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model)


def _run_engine_sharded(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model, num_shards=4)


def _run_engine_flow_cache(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model, flow_cache=True)


def _run_engine_process(scenario, wires, cost_model):
    return _run_engine(
        scenario, wires, cost_model, backend="process", num_shards=2
    )


def _run_engine_degrade_drop(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model, degrade="drop")


def _run_engine_degrade_host(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model, degrade="pass-to-host")


def _run_engine_degrade_ip(scenario, wires, cost_model):
    return _run_engine(scenario, wires, cost_model, degrade="best-effort-ip")


def _run_serve(scenario, wires, cost_model) -> ExecutionResult:
    """The serving daemon's framing+batching path, driven synchronously.

    Wires go through :class:`repro.serve.core.ServeCore` exactly as
    the daemon drives it -- submit to the ingress queue, flush in
    ``batch_max`` batches through a persistent engine -- minus the
    sockets.  ``max_inflight`` is sized to the corpus and ``now`` is
    pinned to the timeless 0.0 so admission control and TTL expiry
    (the daemon's operational features) cannot alter Algorithm 1
    verdicts; that equivalence is exactly what this executor proves.
    Each reply is also round-tripped through the reply codec so a
    decision that survives the engine but dies in framing still counts
    as a divergence.
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
            flow_cache=False,
        ),
        state_factory=scenario.state_factory,
        registry_factory=scenario.registry_factory,
        cost_model=cost_model,
    )
    try:
        for index, wire in enumerate(wires):
            if not core.submit(bytes(wire), index):
                raise AssertionError(
                    "serve executor shed a packet despite max_inflight "
                    "== len(wires)"
                )
        collected: List[Tuple[int, object]] = []
        replies = core.drain(now=0.0, collect=collected)
        outcomes: List[Optional[WireOutcome]] = [None] * len(wires)
        for (index, outcome), (reply_index, payload) in zip(
            collected, replies
        ):
            status, ports, _ = decode_reply(payload)
            if (
                index != reply_index
                or status != outcome.decision.value
                or ports != tuple(outcome.ports)
            ):
                raise AssertionError(
                    f"serve reply codec disagrees with engine outcome "
                    f"for packet {index}"
                )
            outcomes[index] = WireOutcome(
                outcome.decision.value,
                tuple(outcome.ports),
                outcome.packet,
                outcome.reason,
            )
        state = state_fingerprint(core.engine.shard_state(0))
    finally:
        core.close()
    return ExecutionResult(outcomes, state=state)


def _run_fabric(scenario, wires, cost_model) -> ExecutionResult:
    """An engine-backed router driven over the co-simulation fabric.

    The corpus rides a two-component fabric scenario: a source host
    injects every wire at virtual time 0 (per-channel sequence numbers
    preserve input order through the synchronizer), a fabric router
    runs them through a :class:`~repro.engine.ForwardingEngine` whose
    clock is the fabric's virtual clock, and every egress loops back to
    the source over the reverse channel.  Zero-latency channels are
    legal here because the source closes its outputs after flushing
    (the acyclic-termination rule); every walk then executes at
    ``now == 0.0``, so PIT/CS timestamps match the timeless reference
    interpreter exactly.  What this executor proves: the fabric's
    message protocol, conservative synchronizer and engine adapter are
    decision-transparent -- byte-identical verdicts, state and all.
    """
    from repro.fabric.components import EngineRouterComponent, HostComponent
    from repro.fabric.messages import KIND_DIP, Inject
    from repro.fabric.runner import ChannelSpec, FabricRun

    def make_source():
        injections = [
            Inject(0.0, "source", 0, KIND_DIP, bytes(wire), len(wire), seq)
            for seq, wire in enumerate(wires)
        ]
        return HostComponent("source", injections)

    def make_router():
        component = EngineRouterComponent(
            "router",
            scenario.state_factory,
            registry_factory=scenario.registry_factory,
            cost_model=cost_model,
            config=EngineConfig(num_shards=1, backend="serial", batch_size=16),
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
    outcomes: List[Optional[WireOutcome]] = [
        (
            WireOutcome(
                outcome.decision.value,
                tuple(outcome.ports),
                outcome.packet,
                outcome.reason,
            )
            if outcome is not None
            else None
        )
        for outcome in router.outcomes
    ]
    return ExecutionResult(
        outcomes, state=state_fingerprint(router.state())
    )


def _run_dataplane(scenario, wires, cost_model) -> ExecutionResult:
    registry = scenario.registry()
    pipeline = DipPipeline(
        scenario.state(),
        registry if registry is not None else default_registry(),
    )
    outcomes: List[Optional[WireOutcome]] = []
    for wire in wires:
        try:
            packet = DipPacket.decode(bytes(wire))
        except Exception as exc:
            outcomes.append(outcome_from_exception(exc))
            continue
        if packet.header.fn_num > pipeline.max_fns:
            # Beyond the parse graph's unroll budget: out of the PISA
            # model's domain, not a divergence (DESIGN.md 3.10).
            outcomes.append(None)
            continue
        try:
            result = pipeline.process(packet)
        except PipelineConstraintError:
            outcomes.append(None)
            continue
        except Exception as exc:
            outcomes.append(outcome_from_exception(exc))
            continue
        outcomes.append(
            WireOutcome(
                result.decision.value,
                tuple(result.ports),
                (
                    result.packet.encode()
                    if result.packet is not None
                    else None
                ),
                None,
            )
        )
    return ExecutionResult(outcomes, state=state_fingerprint(pipeline.state))


# ----------------------------------------------------------------------
# the matrix
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
    #: Skip packets whose *reference* verdict is a processing-limit
    #: drop: the PISA pipeline enforces no cycle/state budgets.
    skip_limit_failures: bool = False


DEFAULT_EXECUTORS: Tuple[ExecutorSpec, ...] = (
    ExecutorSpec(
        "process", _run_process, compare_notes=True, compare_cycles=True
    ),
    ExecutorSpec(
        "process-batch",
        _run_process_batch,
        compare_notes=True,
        compare_cycles=True,
    ),
    ExecutorSpec(
        "flow-cache", _run_flow_cache, compare_notes=True, compare_cycles=True
    ),
    ExecutorSpec(
        "columnar", _run_columnar, compare_notes=True, compare_cycles=True
    ),
    ExecutorSpec("engine-serial", _run_engine_serial),
    ExecutorSpec(
        "engine-serial-sharded", _run_engine_sharded, compare_state=False
    ),
    ExecutorSpec("engine-serial-flowcache", _run_engine_flow_cache),
    ExecutorSpec(
        "engine-process", _run_engine_process, compare_state=False
    ),
    ExecutorSpec(
        "engine-degrade-drop", _run_engine_degrade_drop, degrade="drop"
    ),
    ExecutorSpec(
        "engine-degrade-host",
        _run_engine_degrade_host,
        degrade="pass-to-host",
    ),
    ExecutorSpec(
        "engine-degrade-ip",
        _run_engine_degrade_ip,
        degrade="best-effort-ip",
    ),
    ExecutorSpec(
        "dataplane",
        _run_dataplane,
        compare_reason=False,
        skip_limit_failures=True,
    ),
    ExecutorSpec("serve", _run_serve),
    ExecutorSpec("fabric", _run_fabric),
)

EXECUTOR_NAMES: Tuple[str, ...] = tuple(
    spec.name for spec in DEFAULT_EXECUTORS
)


def executors_by_name(names) -> Tuple[ExecutorSpec, ...]:
    """Resolve a name list against the matrix, preserving matrix order."""
    wanted = set(names)
    unknown = wanted - set(EXECUTOR_NAMES)
    if unknown:
        raise ValueError(
            f"unknown executors: {sorted(unknown)} "
            f"(known: {list(EXECUTOR_NAMES)})"
        )
    return tuple(s for s in DEFAULT_EXECUTORS if s.name in wanted)
