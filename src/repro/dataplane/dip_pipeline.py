"""Execute DIP packets the way the Tofino prototype does (Section 4.1).

:class:`repro.core.processor.RouterProcessor` is the software walk (a
loop over a lowered FN program); the deliberately naive *reference*
interpreter is :class:`repro.conformance.reference.ReferenceInterpreter`.
This module is the *hardware-shaped* execution path, built from the
dataplane pieces the way the paper describes its prototype:

- the packet is parsed by the unrolled DIP parse graph
  (:func:`repro.dataplane.parser.dip_parse_graph`) into a PHV -- no
  loops, ``FN_Num`` bounds how many FN states fire.  The walk runs
  once per FN program: its result is compiled into a plan keyed on the
  FN-definition bytes (P4 compiles its parser from the program), and
  later frames of that program read their header scalars straight off
  the wire (``parse_graph_walks`` counts the walks);
- one pipeline stage exists per unrolled FN slot ("we use the simple
  if-else statement with FN_Num to determine how many field operations
  to perform");
- each stage matches the slot's operation key against the installed
  modules ("we pre-write the required operation modules on the data
  plane and use the operation key to match these operation modules");
  a miss means the FN is unsupported at this node.  The compiled plan
  is that dispatch: it resolves every slot against the live registry
  and is recompiled whenever ``registry.version`` moves, so a
  ``RegistryMutation`` reprograms the pipeline with no other step;
- a program whose router FNs include an AES-backed MAC, MARK or VERIFY
  needs a second pass (the paper: AES "needs to resubmit the packet"
  on Tofino, which is why it picked 2EM); the plan records ``passes``;
- matched entries invoke the pre-installed operation module against
  the packet's FN-locations buffer (the part of the packet the PHV
  does not hold -- real PISA programs likewise keep payloads in the
  packet buffer);
- the wire is parsed once: the FN triples are read from the PHV, the
  locations and payload are slices of the input bytes, and a forward
  is emitted by splicing the rewritten bytes back into them.

``tests/dataplane/test_dip_pipeline.py`` proves this path decides
exactly like ``RouterProcessor`` for every protocol realization, and
the conformance matrix holds both to the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NoReturn, Optional, Tuple, Union

from repro.core.fn import FN_ENCODED_SIZE, FieldOperation, OperationKey
from repro.core.header import (
    BASIC_HEADER_SIZE,
    MAX_LOC_LEN,
    DipHeader,
    check_field_ranges,
)
from repro.core.operations.base import (
    Decision,
    OperationContext,
    OperationResult,
)
from repro.core.packet import DipPacket
from repro.core.program import PROGRAM_CACHE_BOUND, is_path_critical
from repro.core.registry import OperationRegistry, default_registry
from repro.core.state import NodeState
from repro.dataplane.parser import dip_parse_graph
from repro.errors import (
    FieldRangeError,
    OperationError,
    PipelineConstraintError,
    TruncatedHeaderError,
)
from repro.util.bitview import BitView


@dataclass
class PipelineResult:
    """Outcome of one pipeline traversal.

    ``wire`` holds the output packet's bytes on a FORWARD (None
    otherwise); :attr:`packet` decodes them only when read.  ``fns`` and
    ``header_length`` are what the parse read off the input, which is
    all a cycle charge needs.  ``passes`` is the program's pipeline
    passes: 2 when an AES-backed MAC module needs a resubmission.
    """

    decision: Decision
    ports: Tuple[int, ...] = ()
    wire: Optional[bytes] = None
    stages_executed: int = 0
    notes: List[str] = field(default_factory=list)
    unsupported_key: Optional[int] = None
    fns: Tuple[FieldOperation, ...] = ()
    header_length: int = 0
    passes: int = 1

    @cached_property
    def packet(self) -> Optional[DipPacket]:
        """The output packet, decoded from :attr:`wire` on first read."""
        return DipPacket.decode(self.wire) if self.wire is not None else None


# Stage kinds of a compiled plan: note only, unsupported, invoke.
_NOTE, _UNSUPPORTED, _INVOKE = range(3)

# The hardware's match-action stage budget (Tofino-shaped).
MAX_STAGES = 12

# Keys whose module needs a second pass when backed by AES.
_RECIRCULATING_KEYS = (OperationKey.MAC, OperationKey.MARK, OperationKey.VERIFY)


@dataclass(frozen=True)
class _Plan:
    """One FN program's parse, compiled: what the parse graph would read.

    ``stages`` holds one ``(kind, slot, fn, stages_used, operation,
    note)`` row per FN slot the walk reaches, with the key already
    matched to its module and the note text already built.
    ``field_end`` is the largest target-field end over ``fns``: a frame
    whose locations region is shorter fails the range check.
    ``passes`` is 2 when an invoked module needs recirculation.
    """

    fns: Tuple[FieldOperation, ...]
    field_end: int
    stages: Tuple[tuple, ...]
    stages_used: int
    passes: int


class DipPipeline:
    """Stage-per-FN-slot pipeline with key dispatch.

    Parameters
    ----------
    state:
        The node's protocol state (shared with any reference processor
        for equivalence testing).
    registry:
        Installed operation modules, matched by key in every stage;
        the pipeline follows the registry's live contents.
    max_fns:
        The unroll budget, at most ``MAX_STAGES``: packets carrying
        more router FNs than stages cannot be programmed
        (PipelineConstraintError), mirroring the hardware limitation
        the paper works around.

    A frame takes its program's compiled plan only when it carries at
    most ``max_fns`` FNs and its wire holds the whole header; every
    other frame walks the parse graph, so errors, their order and
    their text never depend on what was compiled before.
    """

    def __init__(
        self,
        state: NodeState,
        registry: Optional[OperationRegistry] = None,
        max_fns: int = MAX_STAGES,
    ) -> None:
        if max_fns > MAX_STAGES:
            raise PipelineConstraintError(
                f"{max_fns} FN stages exceed the {MAX_STAGES}-stage budget"
            )
        self.state = state
        self.registry = registry if registry is not None else default_registry()
        self.max_fns = max_fns
        self.parser = dip_parse_graph(max_fns=max_fns)
        # The compiled parse and dispatch: one plan per FN-definition
        # region, cleared when the registry moves and bounded like the
        # program cache.
        self._plans: Dict[bytes, _Plan] = {}
        self._plans_version = self.registry.version
        self.parse_graph_walks = 0

    # ------------------------------------------------------------------
    def process(
        self,
        packet: Union[bytes, DipPacket],
        ingress_port: int = 0,
        now: float = 0.0,
    ) -> PipelineResult:
        """Run one packet's wire bytes through parser + stages.

        A :class:`DipPacket` is encoded first.  The wire is parsed once:
        the FN triples come from the program's plan (the parse graph on
        first sight), and the FN locations and the payload stay slices
        of the packet buffer -- nothing decodes the input to a
        ``DipPacket``.  A malformed wire raises exactly what
        ``DipPacket.decode`` raises, in the same order: codec errors
        before the unroll budget, field ranges before the hop limit.
        """
        wire = packet.encode() if isinstance(packet, DipPacket) else bytes(packet)
        if self._plans_version != self.registry.version:
            # Plans captured module lookups: recompile under the new set.
            self._plans.clear()
            self._plans_version = self.registry.version
        plan = None
        if len(wire) >= BASIC_HEADER_SIZE:
            fn_num = wire[2]
            loc_start = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * fn_num
            header_length = loc_start + (
                (((wire[4] << 8) | wire[5]) >> 1) & MAX_LOC_LEN
            )
            if fn_num <= self.max_fns and len(wire) >= header_length:
                plan = self._plans.get(wire[BASIC_HEADER_SIZE:loc_start])
        if plan is None:
            plan, loc_start, header_length = self._parse(wire)
        fns = plan.fns
        # Field ranges are validated before the hop-limit check, in
        # Algorithm 1 order: a malformed program is a codec error even
        # when the hop limit already expired (conformance regression
        # vector pipeline-fieldrange-before-hoplimit).
        if plan.field_end > (header_length - loc_start) * 8:
            check_field_ranges(fns, header_length - loc_start)
        result = PipelineResult(
            decision=Decision.DROP,
            fns=fns,
            header_length=header_length,
            passes=plan.passes,
        )
        notes = result.notes
        hop_limit = wire[3]
        if hop_limit == 0:
            notes.append("hop limit expired")
            return result

        ctx = OperationContext(
            state=self.state,
            locations=BitView(wire[loc_start:header_length]),
            payload=wire[header_length:],
            ingress_port=ingress_port,
            now=now,
            at_host=False,
            fns=fns,
        )

        fate = None
        for kind, slot, fn, stages, operation, note in plan.stages:
            if kind == _INVOKE:
                try:
                    op_result = operation.execute(ctx, fn)
                except (OperationError, FieldRangeError) as exc:
                    notes.append(f"stage {slot}: {exc}")
                    result.stages_executed = stages
                    return result
                notes.append(note)
                if op_result.decision is Decision.DROP:
                    notes.append(op_result.note)
                    result.stages_executed = stages
                    return result
                if op_result.decision in (Decision.FORWARD, Decision.DELIVER):
                    fate = op_result
            elif kind == _UNSUPPORTED:
                result.decision = Decision.UNSUPPORTED
                result.unsupported_key = fn.key
                notes.append(note)
                result.stages_executed = stages
                return result
            else:
                notes.append(note)

        result.stages_executed = plan.stages_used
        if fate is None and self.state.default_port is not None:
            fate = OperationResult.forward(self.state.default_port)
        if fate is None:
            notes.append("no forwarding decision")
            return result
        result.decision = fate.decision
        result.ports = fate.ports
        if fate.decision is Decision.FORWARD:
            # Forwarding never touches the FN definitions or the
            # locations' length, so the output is the input with the
            # hop-limit byte and the locations region replaced -- a
            # splice, byte-identical to re-encoding a rewritten header.
            result.wire = b"".join(
                (
                    wire[:3],
                    bytes((hop_limit - 1,)),
                    wire[4:loc_start],
                    ctx.locations.to_bytes(),
                    wire[header_length:],
                )
            )
        return result

    # ------------------------------------------------------------------
    def _parse(self, wire: bytes) -> Tuple[_Plan, int, int]:
        """Walk the parse graph; returns ``(plan, loc_start, header_length)``.

        The path for a program's first frame and for every wire that
        fails the plan's bounds check, so every codec and unroll-budget
        error is raised here.  A program that parses is compiled and
        kept, keyed on its FN-definition bytes.
        """
        self.parse_graph_walks += 1
        parse = self.parser.parse(wire)
        if not parse.accepted:
            _raise_codec_error(wire)
        phv = parse.phv
        fn_num = phv.get("fn_num")
        loc_start = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * fn_num
        header_length = loc_start + ((phv.get("packet_param") >> 1) & MAX_LOC_LEN)
        if len(wire) < header_length:
            _raise_codec_error(wire)
        if fn_num > self.max_fns:
            # The parse graph is unrolled max_fns times: triples beyond
            # that never reach the PHV, so the program is infeasible.
            raise PipelineConstraintError(
                f"packet carries {fn_num} FNs; the parse graph unrolls "
                f"only {self.max_fns} FN states"
            )
        plan = self._compile(
            tuple(self._fn_from_phv(phv, slot) for slot in range(fn_num))
        )
        plans = self._plans
        if len(plans) >= PROGRAM_CACHE_BOUND:
            plans.clear()
        plans[wire[BASIC_HEADER_SIZE:loc_start]] = plan
        return plan, loc_start, header_length

    def _compile(self, fns: Tuple[FieldOperation, ...]) -> _Plan:
        """Resolve every FN slot's stage, module and note once."""
        stages = []
        cursor = 0
        recirculate = False
        for slot, fn in enumerate(fns):
            if fn.tag:
                operation = None
                kind, note = _NOTE, f"stage {slot}: host FN skipped"
            else:
                operation = self.registry.find(fn.key)
                cursor += 1
                if operation is not None:
                    kind, note = _INVOKE, f"stage {slot}: {operation.name}"
                    recirculate = recirculate or fn.key in _RECIRCULATING_KEYS
                elif is_path_critical(fn.key):
                    kind = _UNSUPPORTED
                    note = f"stage {slot}: unsupported path-critical key {fn.key}"
                else:
                    kind, note = _NOTE, f"stage {slot}: key {fn.key} ignored"
            stages.append((kind, slot, fn, cursor, operation, note))
            if kind == _UNSUPPORTED:
                break
        return _Plan(
            fns,
            max((fn.field_end for fn in fns), default=0),
            tuple(stages),
            cursor,
            2 if recirculate and self.state.mac_backend == "aes" else 1,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _fn_from_phv(phv, slot: int) -> FieldOperation:
        """Reassemble FN ``slot`` from the parser's re-extracted fields."""
        suffix = "" if slot == 0 else f"[{slot}]"
        key_field = phv.get(f"fn_key{suffix}")
        return FieldOperation(
            field_loc=phv.get(f"fn_loc{suffix}"),
            field_len=phv.get(f"fn_len{suffix}"),
            key=key_field & 0x7FFF,
            tag=bool(key_field & 0x8000),
        )


def _raise_codec_error(wire: bytes) -> NoReturn:
    """Raise the codec's own error for a wire shorter than its header.

    The parse only finds the wire short; ``DipHeader.decode`` says which
    part is missing, with the text ``DipPacket.decode`` would give.
    """
    DipHeader.decode(wire)
    raise TruncatedHeaderError("DIP header runs past the end of the wire")
