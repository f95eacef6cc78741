"""Execute DIP packets the way the Tofino prototype does (Section 4.1).

:class:`repro.core.processor.RouterProcessor` is the software walk (a
loop over a lowered FN program); the deliberately naive *reference*
interpreter is :class:`repro.conformance.reference.ReferenceInterpreter`.
This module is the *hardware-shaped* execution path, built from the
dataplane pieces the way the paper describes its prototype:

- the packet is parsed by the unrolled DIP parse graph
  (:func:`repro.dataplane.parser.dip_parse_graph`) into a PHV -- no
  loops, ``FN_Num`` bounds how many FN states fire.  The walk runs
  once per FN program: the triples it reads are lowered into a
  :class:`~repro.core.program.Program` kept in the pipeline's own
  :class:`~repro.core.program.ProgramCache` (P4 compiles its parser
  and its tables from one program), and later frames of that program
  read their header scalars straight off the wire
  (``parse_graph_walks`` counts the walks);
- one pipeline stage exists per unrolled FN slot ("we use the simple
  if-else statement with FN_Num to determine how many field operations
  to perform"), within the ``MAX_STAGES`` budget;
- each stage matches the slot's operation key against the installed
  modules ("we pre-write the required operation modules on the data
  plane and use the operation key to match these operation modules");
  a miss means the FN is unsupported at this node.  The program's
  steps are that dispatch: they are lowered against the live registry
  and dropped whenever ``registry.version`` moves, so a
  ``RegistryMutation`` reprograms the pipeline with no other step;
- a program whose router FNs execute an AES-backed MAC, MARK or VERIFY
  needs a second pass (the paper: AES "needs to resubmit the packet"
  on Tofino, which is why it picked 2EM); the result records ``passes``;
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

from dataclasses import dataclass
from functools import cached_property
from typing import List, NoReturn, Optional, Tuple, Union

from repro.core.fn import FN_ENCODED_SIZE, FieldOperation
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
from repro.core.program import (
    MAX_STAGES,
    STEP_EXECUTE,
    STEP_HOST_SKIP,
    STEP_IGNORE,
    STEP_UNSUPPORTED,
    Program,
    ProgramCache,
)
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


# Stage-note text per step code, formatted with the slot, FN and module.
_STAGE_NOTES = {
    STEP_EXECUTE: "stage {slot}: {op.name}",
    STEP_HOST_SKIP: "stage {slot}: host FN skipped",
    STEP_IGNORE: "stage {slot}: key {fn.key} ignored",
    STEP_UNSUPPORTED: "stage {slot}: unsupported path-critical key {fn.key}",
}


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
    unsupported_key: Optional[int] = None
    fns: Tuple[FieldOperation, ...] = ()
    header_length: int = 0
    passes: int = 1
    # The steps noted and why the walk ended; :attr:`notes` formats them when read.
    _steps = ()
    _closing = None

    def _end(
        self,
        program: Program,
        walked: int,
        closing: Optional[str] = None,
        noted: Optional[int] = None,
    ) -> "PipelineResult":
        """Close the walk after the first ``walked`` steps of ``program``."""
        self.stages_executed = program.stage_ends[walked]
        self._steps = program.steps[: walked if noted is None else noted]
        self._closing = closing
        return self

    @cached_property
    def notes(self) -> List[str]:
        """One note per stage walked, then why the walk ended (formatted once)."""
        notes = [
            _STAGE_NOTES[code].format(slot=slot, fn=fn, op=op)
            for slot, (code, fn, op, _) in enumerate(self._steps)
        ]
        if self._closing is not None:
            notes.append(self._closing)
        return notes

    @cached_property
    def packet(self) -> Optional[DipPacket]:
        """The output packet, decoded from :attr:`wire` on first read."""
        return DipPacket.decode(self.wire) if self.wire is not None else None


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
        more FNs than that cannot be programmed
        (PipelineConstraintError), mirroring the hardware limitation
        the paper works around.

    ``programs`` is the pipeline's own :class:`ProgramCache`.  A frame
    takes its program from it only when it carries at most ``max_fns``
    FNs and its wire holds the whole header; every other frame walks
    the parse graph, so errors, their order and their text never
    depend on what was lowered before.
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
        self.programs = ProgramCache(self.registry)
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
        the FN triples come from the program (the parse graph on first
        sight), and the FN locations and the payload stay slices of the
        packet buffer -- nothing decodes the input to a ``DipPacket``.
        A malformed wire raises exactly what ``DipPacket.decode``
        raises, in the same order: codec errors before the unroll
        budget, field ranges before the hop limit.
        """
        wire = packet.encode() if isinstance(packet, DipPacket) else bytes(packet)
        self.programs.sync()
        program = None
        if len(wire) >= BASIC_HEADER_SIZE:
            fn_num = wire[2]
            loc_start = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * fn_num
            header_length = loc_start + (
                (((wire[4] << 8) | wire[5]) >> 1) & MAX_LOC_LEN
            )
            if fn_num <= self.max_fns and len(wire) >= header_length:
                program = self.programs.get(wire[BASIC_HEADER_SIZE:loc_start])
        if program is None:
            program, loc_start, header_length = self._parse(wire)
        fns = program.fns
        # Field ranges are validated before the hop-limit check, in
        # Algorithm 1 order: a malformed program is a codec error even
        # when the hop limit already expired (conformance regression
        # vector pipeline-fieldrange-before-hoplimit).
        if program.max_field_end > (header_length - loc_start) * 8:
            check_field_ranges(fns, header_length - loc_start)
        aes = self.state.mac_backend == "aes"
        result = PipelineResult(
            Decision.DROP, fns=fns, header_length=header_length,
            passes=2 if aes and program.recirculates else 1,
        )
        hop_limit = wire[3]
        if hop_limit == 0:
            return result._end(program, 0, "hop limit expired")

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
        steps = program.steps
        for slot, (code, fn, operation, _) in enumerate(steps):
            if code == STEP_EXECUTE:
                try:
                    op_result = operation.execute(ctx, fn)
                except (OperationError, FieldRangeError) as exc:
                    return result._end(
                        program, slot + 1, f"stage {slot}: {exc}", noted=slot
                    )
                if op_result.decision is Decision.DROP:
                    return result._end(program, slot + 1, op_result.note)
                if op_result.decision in (Decision.FORWARD, Decision.DELIVER):
                    fate = op_result
            elif code == STEP_UNSUPPORTED:
                result.decision, result.unsupported_key = Decision.UNSUPPORTED, fn.key
                return result._end(program, slot + 1)

        if fate is None and self.state.default_port is not None:
            fate = OperationResult.forward(self.state.default_port)
        if fate is None:
            return result._end(program, len(steps), "no forwarding decision")
        result._end(program, len(steps))
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
    def _parse(self, wire: bytes) -> Tuple[Program, int, int]:
        """Walk the parse graph; returns ``(program, loc_start, header_length)``.

        The path for a program's first frame and for every wire that
        fails the bounds check, so every codec and unroll-budget error
        is raised here.  A program that parses is lowered into
        ``programs``, keyed on its FN-definition bytes.
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
        fns = tuple(self._fn_from_phv(phv, slot) for slot in range(fn_num))
        return self.programs.lookup(fns), loc_start, header_length

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
