"""Router packet processing (Algorithm 1 of the paper).

Upon receiving a packet the router (1) parses the basic DIP header
(FN_Num, FN_LocLen), (2) parses the FN definitions, (3) extracts the FN
locations, then (4) walks the FNs in order, skipping host-tagged ones
and dispatching the rest to the operation modules by key.

Steps (2) and everything derivable from the definitions alone are done
once per distinct program (:mod:`repro.core.program`); step (4) is
written once, in :meth:`RouterProcessor.walk`.  ``process`` walks one
packet, ``process_batch`` walks many -- optionally behind the flow
decision cache (:mod:`repro.core.flowcache`).

Beyond the paper's pseudocode the processor also implements:

- the Section 2.4 *heterogeneous configuration* rule: an unsupported FN
  is ignored unless it is path-critical, in which case processing stops
  and the source must be signalled (``Decision.UNSUPPORTED``);
- the Section 2.4 *resource limits*: FN count, processing-time and
  per-packet-state budgets;
- the Section 2.2 *modular parallelism* flag: when set, operations
  whose target fields and scratch dependencies do not conflict are
  modelled as executing concurrently, and the reported cycle count is
  the critical path instead of the sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.flowcache import FlowDecisionCache, template_from_result
from repro.core.fn import FN_ENCODED_SIZE, FieldOperation, OperationKey
from repro.core.header import BASIC_HEADER_SIZE, MAX_LOC_LEN, DipHeader
from repro.core.operations.base import (
    Decision,
    OperationContext,
    OperationResult,
)
from repro.core.packet import DipPacket
from repro.core.program import (
    STEP_EXECUTE,
    STEP_HOST_SKIP,
    STEP_IGNORE,
    Program,
    ProgramCache,
    fns_conflict,
    parallel_levels,
)
from repro.core.registry import OperationRegistry, default_registry
from repro.core.state import NodeState
from repro.errors import (
    FieldRangeError,
    OperationError,
    OperationStateError,
    UnknownOperationError,
)
from repro.util.bitview import BitView

__all__ = [
    "Decision",
    "ProcessResult",
    "RouterProcessor",
    "fns_conflict",
    "parallel_levels",
    "poison_result",
]


@dataclass(frozen=True)
class ProcessResult:
    """Everything a packet walk produced.

    Parameters
    ----------
    decision:
        The packet's fate at this node.
    ports:
        Egress ports when forwarding.
    packet:
        The rewritten packet (hop limit decremented, locations updated);
        None when the packet was dropped.
    notes:
        Per-FN trace notes, in execution order.
    cycles:
        Effective model cycles (critical path when the packet's
        parallel flag is set, otherwise the sequential sum); 0 when no
        cost model was supplied.
    cycles_sequential, cycles_parallel:
        Both totals, for the ABL-PAR ablation.
    unsupported_key:
        The offending key when ``decision`` is UNSUPPORTED.
    scratch:
        The walk's final scratch space (cache hits, reports...).
    failure:
        Machine-readable failure class when the walk ended abnormally:
        ``"limit"`` (processing limits, 2.4), ``"state"`` (operation
        state missing/invalid), ``"unsupported"`` (path-critical FN
        without a module), an exception class name for quarantined
        poison packets, or ``None`` for a clean walk.  This is what
        the engine's degradation policies key off.
    """

    decision: Decision
    ports: Tuple[int, ...] = ()
    packet: Optional[DipPacket] = None
    notes: Tuple[str, ...] = ()
    cycles: int = 0
    cycles_sequential: int = 0
    cycles_parallel: int = 0
    unsupported_key: Optional[int] = None
    scratch: Dict[str, Any] = field(default_factory=dict)
    failure: Optional[str] = None


class RouterProcessor:
    """One DIP router's packet processing engine.

    Parameters
    ----------
    state:
        The node's protocol state (FIBs, PIT, keys...).
    registry:
        The installed operation modules; defaults to the full set.
    cost_model:
        Optional object with ``parse_cycles(header_len, packet_size)``
        and ``fn_cycles(fn)`` methods (see
        :class:`repro.dataplane.costs.CycleCostModel`).
    flow_cache:
        Optional flow-level decision cache in front of
        :meth:`process_batch` (:mod:`repro.core.flowcache`).
    telemetry:
        Optional :class:`repro.telemetry.MetricsRegistry`; None
        records nothing.
    quarantine:
        When True :meth:`process_batch` isolates poison packets: any
        exception a packet's decode or walk raises becomes an
        ``error``-decision :class:`ProcessResult` (``failure`` = the
        exception class name) instead of propagating.  Off by default
        so direct callers keep exact exception identity; the engine's
        shard workers turn it on (a worker must survive any packet).

    ``programs`` is the processor's :class:`ProgramCache`;
    ``programs.lookup(fns)`` is the public way to a lowered program.
    """

    def __init__(
        self,
        state: NodeState,
        registry: Optional[OperationRegistry] = None,
        cost_model: Optional[object] = None,
        flow_cache: Optional[FlowDecisionCache] = None,
        telemetry: Optional[object] = None,
        quarantine: bool = False,
    ) -> None:
        self.state = state
        self.quarantine = quarantine
        self.registry = registry if registry is not None else default_registry()
        self.cost_model = cost_model
        self.flow_cache = flow_cache
        self.programs = ProgramCache(self.registry, cost_model)
        self.telemetry = telemetry
        if self.telemetry:
            self._tel_cycles = self.telemetry.histogram(
                "processor_fn_cycles",
                "model cycles per packet walk (cost-model units)",
            )
            self._tel_op_counters: Dict[int, object] = {}
            self._tel_decision_counters: Dict[object, object] = {}
            # Walks awaiting the per-batch fold (_tel_flush): the hot
            # loop pays one list append per walked packet, the registry
            # work happens once per batch at C speed.
            self._tel_walked: List[Tuple[Program, ProcessResult]] = []

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def process(
        self,
        packet: Union[DipPacket, bytes],
        ingress_port: int = 0,
        now: float = 0.0,
    ) -> ProcessResult:
        """Run Algorithm 1 on one packet (full trace notes, exceptions
        propagate, nothing is cached or recorded)."""
        # Lines 1-3: parse basic header, FN definitions, FN locations.
        if isinstance(packet, (bytes, bytearray)):
            packet = DipPacket.decode(bytes(packet))
        program = self.programs.lookup(packet.header.fns)
        return self.walk(packet, program, ingress_port, now, collect_notes=True)

    def walk(
        self,
        packet: DipPacket,
        program: Program,
        ingress_port: int = 0,
        now: float = 0.0,
        collect_notes: bool = False,
    ) -> ProcessResult:
        """Algorithm 1 lines 4-18 for one packet over its lowered program.

        ``program`` must be ``self.programs``' program for
        ``packet.header.fns``.  With ``collect_notes`` off the per-FN
        trace notes are skipped (fate-relevant notes -- drops, limit
        violations -- are kept either way).  The per-packet budgets of
        Section 2.4 are plain integer locals; the violation texts match
        :class:`repro.core.limits.LimitTracker`'s byte for byte.
        """
        header = packet.header
        if program.max_field_end > len(header.locations) * 8:
            header.validate_field_ranges()  # raises the reference error

        state = self.state
        limits = state.limits

        if header.hop_limit == 0:
            return ProcessResult(
                decision=Decision.DROP, notes=("hop limit expired",)
            )

        # Plain-attribute construction (OperationContext is an unfrozen
        # dataclass); the generated __init__ costs real time per packet.
        ctx = object.__new__(OperationContext)
        ctx.state = state
        ctx.locations = BitView(header.locations)
        ctx.payload = packet.payload
        ctx.ingress_port = ingress_port
        ctx.now = now
        ctx.at_host = False
        ctx.fns = header.fns
        ctx.scratch = {}

        cost_model = self.cost_model
        parse_cycles = 0
        cycles_used = 0
        state_used = 0
        max_cycles = limits.max_cycles
        max_state = limits.max_state_bytes
        if limits.max_fn_count and program.fn_num > limits.max_fn_count:
            return ProcessResult(
                decision=Decision.DROP,
                notes=(
                    f"packet carries {program.fn_num} FNs "
                    f"(limit {limits.max_fn_count})",
                ),
                scratch=ctx.scratch,
                failure="limit",
            )
        if cost_model is not None:
            parse_cycles = cost_model.parse_cycles(
                header.header_length, packet.size
            )
            cycles_used = parse_cycles
            if max_cycles and cycles_used > max_cycles:
                return ProcessResult(
                    decision=Decision.DROP,
                    notes=(
                        f"processing budget exhausted "
                        f"({cycles_used} > {max_cycles} cycles)",
                    ),
                    cycles=parse_cycles,
                    cycles_sequential=parse_cycles,
                    cycles_parallel=parse_cycles,
                    scratch=ctx.scratch,
                    failure="limit",
                )

        notes: List[str] = []
        fate: Optional[OperationResult] = None
        executed = 0
        final: Optional[Decision] = None
        failure: Optional[str] = None
        ports: Tuple[int, ...] = ()
        out_packet: Optional[DipPacket] = None

        for action, fn, operation, fn_cycles in program.steps:
            if action == STEP_EXECUTE:
                if cost_model is not None:
                    cycles_used += fn_cycles
                    if max_cycles and cycles_used > max_cycles:
                        notes.append(
                            f"{fn}: processing budget exhausted "
                            f"({cycles_used} > {max_cycles} cycles)"
                        )
                        final = Decision.DROP
                        failure = "limit"
                        break
                try:
                    result = operation.execute(ctx, fn)
                except (OperationError, FieldRangeError) as exc:
                    notes.append(f"{fn}: operation failed: {exc}")
                    final = Decision.DROP
                    failure = _op_failure(exc)
                    break
                if result.state_bytes:
                    state_used += result.state_bytes
                    if max_state and state_used > max_state:
                        notes.append(
                            f"{fn}: per-packet state budget exhausted "
                            f"({state_used} > {max_state} bytes)"
                        )
                        final = Decision.DROP
                        failure = "limit"
                        break
                executed += 1
                if collect_notes:
                    notes.append(f"{fn}: {result.note or result.decision.value}")
                decision = result.decision
                if decision is Decision.DROP:
                    final = Decision.DROP
                    break
                if decision is Decision.FORWARD or decision is Decision.DELIVER:
                    fate = result
            elif action == STEP_HOST_SKIP:
                if collect_notes:
                    notes.append(f"{fn}: skipped (host operation)")
            elif action == STEP_IGNORE:
                if collect_notes:
                    notes.append(f"{fn}: unsupported FN ignored")
            else:  # STEP_UNSUPPORTED
                notes.append(f"{fn}: unsupported path-critical FN")
                return ProcessResult(
                    decision=Decision.UNSUPPORTED,
                    notes=tuple(notes),
                    unsupported_key=fn.key,
                    cycles=parse_cycles,
                    cycles_sequential=parse_cycles,
                    cycles_parallel=parse_cycles,
                    scratch=ctx.scratch,
                    failure="unsupported",
                )

        # Line 18: end processing -- assemble the outcome.
        if final is None:
            if fate is None and state.default_port is not None:
                fate = OperationResult.forward(
                    state.default_port, note="static egress (default port)"
                )
                notes.append("static egress (default port)")
            if fate is None:
                notes.append("no forwarding decision")
                final = Decision.DROP
            else:
                final = fate.decision
                ports = fate.ports
                if final is Decision.FORWARD:
                    out_packet = _fast_packet(
                        header.fns,
                        ctx.locations.to_bytes(),
                        header.next_header,
                        header.hop_limit - 1,
                        header.parallel,
                        header.reserved,
                        packet.payload,
                    )

        if cost_model is None:
            sequential = parallel = effective = 0
        else:
            sequential = parse_cycles + program.cum_sequential[executed]
            parallel = parse_cycles + program.cum_parallel[executed]
            effective = parallel if header.parallel else sequential
        result = object.__new__(ProcessResult)
        set_attr = object.__setattr__
        set_attr(result, "decision", final)
        set_attr(result, "ports", ports)
        set_attr(result, "packet", out_packet)
        set_attr(result, "notes", tuple(notes))
        set_attr(result, "cycles", effective)
        set_attr(result, "cycles_sequential", sequential)
        set_attr(result, "cycles_parallel", parallel)
        set_attr(result, "unsupported_key", None)
        set_attr(result, "scratch", ctx.scratch)
        set_attr(result, "failure", failure)
        return result

    # ------------------------------------------------------------------
    # batch path, with the optional flow decision cache in front
    # ------------------------------------------------------------------
    def process_batch(
        self,
        packets,
        ingress_port: int = 0,
        now: float = 0.0,
        collect_notes: bool = False,
    ) -> List[ProcessResult]:
        """Run Algorithm 1 over a batch of packets, amortizing program work.

        Decision-identical to calling :meth:`process` per packet (same
        decisions, ports, rewritten bytes, cycles and scratch; proven by
        ``tests/engine/test_process_batch.py``), but FN-triple decode,
        module dispatch and the parallelism/conflict analysis happen
        once per *distinct FN program* instead of once per packet.

        With a ``flow_cache`` attached, packets of pure programs are
        answered from -- or seed -- an exact-match entry keyed on the
        read-field values; stateful programs (any impure executed
        operation), expired hop limits and out-of-range target fields
        *bypass* to the walk.  A steady-state hit on raw bytes
        materializes neither the input header nor the input packet
        object -- only the rewritten output packet -- and is not
        counted as a walk by telemetry (the cache's own hit counter
        tells that story).

        Parameters
        ----------
        packets:
            ``DipPacket`` instances or raw packet ``bytes``.
        collect_notes:
            When True the per-FN trace notes are produced exactly like
            the per-packet path; the default skips their formatting
            cost (fate-relevant notes -- drops, limit violations -- are
            kept either way).
        """
        programs = self.programs
        programs.sync()
        programs_get = programs.get
        cache = self.flow_cache
        # A materialized sequence runs no caller code between packets,
        # so one generation check covers the whole batch; a lazy
        # iterable can mutate decision-relevant state between yields
        # and is re-checked per packet.
        per_packet_sync = not isinstance(packets, (list, tuple))
        if cache is not None:
            cache.sync(self.state_token())
            entries_get = cache._entries.get  # one dict probe per packet
            move_to_end = cache._entries.move_to_end
        cost_model = self.cost_model
        walk = self.walk
        walked = self._tel_walked if self.telemetry else None
        new = object.__new__
        set_attr = object.__setattr__
        out: List[ProcessResult] = []
        append = out.append
        try:
            for packet in packets:
                if per_packet_sync:
                    programs.sync()
                    if cache is not None:
                        cache.sync(self.state_token())
                try:
                    # Prelude, per input kind: the packet's program,
                    # locations, header scalars and payload.
                    program = None
                    if isinstance(packet, (bytes, bytearray)):
                        data = bytes(packet)
                        if len(data) >= BASIC_HEADER_SIZE:
                            defs_end = (
                                BASIC_HEADER_SIZE + FN_ENCODED_SIZE * data[2]
                            )
                            parameter = (data[4] << 8) | data[5]
                            total = defs_end + ((parameter >> 1) & MAX_LOC_LEN)
                            if len(data) >= total:
                                program = programs_get(
                                    data[BASIC_HEADER_SIZE:defs_end]
                                )
                        if program is None:
                            # First sight of the program, or malformed
                            # bytes: the reference decoder raises the
                            # exact codec errors.
                            packet = DipPacket.decode(data)
                    if program is None:
                        in_packet = packet
                        header = packet.header
                        fns = header.fns
                        program = programs_get(fns) or programs.lookup(fns)
                        locations = header.locations
                        next_header = header.next_header
                        hop_limit = header.hop_limit
                        parallel = header.parallel
                        reserved = header.reserved
                        payload = packet.payload
                        total = (
                            BASIC_HEADER_SIZE
                            + FN_ENCODED_SIZE * program.fn_num
                            + len(locations)
                        )
                        size = total + len(payload)
                    else:
                        in_packet = None  # built only if it must be walked
                        locations = data[defs_end:total]
                        next_header = (data[0] << 8) | data[1]
                        hop_limit = data[3]
                        parallel = bool(parameter & 1)
                        reserved = (parameter >> 11) & 0x1F
                        payload = data[total:]
                        size = len(data)

                    # Flow cache: bypass test -> key -> probe.
                    key = entry = None
                    if cache is not None:
                        if (
                            not program.cacheable
                            or hop_limit == 0
                            or program.max_field_end > len(locations) * 8
                        ):
                            cache.bypasses += 1
                        else:
                            # parse_cycles varies with packet size and
                            # feeds both the cycle totals and the budget
                            # checks, so it is part of the key.
                            parse_cycles = (
                                cost_model.parse_cycles(total, size)
                                if cost_model is not None
                                else 0
                            )
                            if program.read_cover == len(locations):
                                values = locations
                            elif program.read_slices is not None:
                                values = tuple(
                                    locations[a:b]
                                    for a, b in program.read_slices
                                )
                            else:
                                view = BitView(locations)
                                values = tuple(
                                    view.get_uint(loc, length)
                                    for loc, length in program.reads
                                )
                            key = (
                                program,
                                values,
                                parse_cycles,
                                parallel,
                                ingress_port,
                                collect_notes,
                            )
                            entry = entries_get(key)

                    if entry is None:
                        # No cache, bypass or miss: walk, then seed.
                        if key is not None:
                            cache.misses += 1
                        if in_packet is None:
                            in_packet = _fast_packet(
                                program.fns, locations, next_header,
                                hop_limit, parallel, reserved, payload,
                            )
                        result = walk(
                            in_packet, program, ingress_port, now,
                            collect_notes,
                        )
                        if walked is not None:
                            walked.append((program, result))
                        if key is not None:
                            template = template_from_result(result, locations)
                            if template is not None:
                                cache.put(key, template)
                    else:
                        # Hit: rebuild the result from the template.
                        move_to_end(key)
                        cache.hits += 1
                        out_packet = None
                        if entry.has_packet:
                            if entry.loc_splices is not None:
                                buffer = bytearray(locations)
                                for offset, replacement in entry.loc_splices:
                                    buffer[
                                        offset : offset + len(replacement)
                                    ] = replacement
                                locations = bytes(buffer)
                            out_packet = _fast_packet(
                                program.fns, locations, next_header,
                                hop_limit - 1, parallel, reserved, payload,
                            )
                        result = new(ProcessResult)
                        set_attr(result, "decision", entry.decision)
                        set_attr(result, "ports", entry.ports)
                        set_attr(result, "packet", out_packet)
                        set_attr(result, "notes", entry.notes)
                        set_attr(result, "cycles", entry.cycles)
                        set_attr(
                            result, "cycles_sequential", entry.cycles_sequential
                        )
                        set_attr(
                            result, "cycles_parallel", entry.cycles_parallel
                        )
                        set_attr(
                            result, "unsupported_key", entry.unsupported_key
                        )
                        set_attr(result, "scratch", dict(entry.scratch))
                        set_attr(result, "failure", entry.failure)
                    append(result)
                except Exception as exc:
                    if not self.quarantine:
                        raise
                    append(poison_result(exc))
        finally:
            if walked:
                self._tel_flush()
        return out

    def state_token(self) -> tuple:
        """Generation token covering everything a pure walk may read.

        Any decision-relevant mutation moves at least one component:
        module installs/removals bump ``registry.version``, FIB edits
        bump the per-table ``generation`` counters, locality/limits/
        default-port changes show up directly or via
        ``NodeState.generation``.  ``programs.generation`` rides along
        so whatever is keyed on program objects (flow-cache entries,
        columnar kernels) is flushed whenever the programs are dropped.
        """
        state = self.state
        return (
            self.registry.version,
            self.programs.generation,
            state.generation,
            state.fib_v4.generation,
            state.fib_v6.generation,
            state.name_fib_digest.generation,
            state.name_fib.generation,
            state.default_port,
            state.limits,
            len(state.local_v4),
            len(state.local_v6),
        )

    def invalidate_program_cache(self) -> None:
        """Drop every lowered program (e.g. after swapping cost models)."""
        self.programs.cost_model = self.cost_model
        self.programs.clear()
        # Program objects are flow-cache key components, so a rebuild
        # must flush the decision cache too.
        if self.flow_cache is not None:
            self.flow_cache.clear()

    # ------------------------------------------------------------------
    # telemetry (repro.telemetry) -- allocated only when enabled
    # ------------------------------------------------------------------
    def record_walks(
        self, program: Program, results: Iterable[ProcessResult]
    ) -> None:
        """Account ``results`` as walks of ``program`` and fold them in.

        The bulk feed for back ends that decide packets without calling
        :meth:`walk` (the columnar kernels): one cycles observation, one
        decision count and one program's worth of op counts per result,
        exactly what ``process_batch`` records per walked packet.  A
        no-op with telemetry off.
        """
        if self.telemetry:
            self._tel_walked.extend((program, result) for result in results)
            self._tel_flush()

    def _tel_flush(self) -> None:
        """Fold the pending walks into the registry (once per batch).

        Cycle observations collapse by distinct value before touching
        the histogram; op executions expand each program's per-key
        counts by how many packets walked it (an early-exit drop still
        counts the full program, DESIGN.md 3.8).
        """
        walked = self._tel_walked
        observe_count = self._tel_cycles.observe_count
        for value, count in Counter(r.cycles for _, r in walked).items():
            observe_count(value, count)
        ops: Dict[int, int] = {}
        for program, packets in Counter(p for p, _ in walked).items():
            for key, count in program.op_counts.items():
                ops[key] = ops.get(key, 0) + count * packets
        for key, count in ops.items():
            counter = self._tel_op_counters.get(key)
            if counter is None:
                counter = self._tel_op_counters[key] = self.telemetry.counter(
                    "processor_fn_ops_total",
                    "operation-module executions by FN key",
                    labels=(("key", _key_label(key)),),
                )
            counter.inc(count)
        for decision, count in Counter(r.decision for _, r in walked).items():
            counter = self._tel_decision_counters.get(decision)
            if counter is None:
                counter = self._tel_decision_counters[decision] = (
                    self.telemetry.counter(
                        "processor_decisions_total",
                        "packet fates decided by the FN walk",
                        labels=(("decision", decision.value),),
                    )
                )
            counter.inc(count)
        walked.clear()


def _op_failure(exc: BaseException) -> Optional[str]:
    """Degradation class of a failed operation (None = plain drop)."""
    if isinstance(exc, OperationStateError):
        return "state"
    if isinstance(exc, UnknownOperationError):
        return "unsupported"
    return None


def poison_result(exc: BaseException) -> ProcessResult:
    """The quarantine verdict for a packet whose processing raised.

    ``failure`` carries the exception class (the engine surfaces it as
    ``PacketOutcome.reason``); the message rides in the notes.
    """
    return ProcessResult(
        decision=Decision.ERROR,
        notes=(f"quarantined: {type(exc).__name__}: {exc}",),
        failure=type(exc).__name__,
    )


def _key_label(key: int) -> str:
    """Stable telemetry label for an FN key (name when standardized)."""
    try:
        return OperationKey(key).name
    except ValueError:
        return f"key-{key}"


def _fast_packet(
    fns: Tuple[FieldOperation, ...],
    locations: bytes,
    next_header: int,
    hop_limit: int,
    parallel: bool,
    reserved: int,
    payload: bytes,
) -> DipPacket:
    """Build a DipPacket from pre-validated parts, skipping __post_init__.

    Every value either comes off the wire through field masks that
    enforce the header's ranges, or from an already-validated header, so
    re-running the dataclass validation per packet is pure overhead.
    """
    set_attr = object.__setattr__
    header = object.__new__(DipHeader)
    set_attr(header, "fns", fns)
    set_attr(header, "locations", locations)
    set_attr(header, "next_header", next_header)
    set_attr(header, "hop_limit", hop_limit)
    set_attr(header, "parallel", parallel)
    set_attr(header, "reserved", reserved)
    packet = object.__new__(DipPacket)
    set_attr(packet, "header", header)
    set_attr(packet, "payload", payload)
    return packet
