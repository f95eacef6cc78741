"""Execute DIP packets the way the Tofino prototype does (Section 4.1).

:class:`repro.core.processor.RouterProcessor` is the software walk (a
loop over a lowered FN program); the deliberately naive *reference*
interpreter is :class:`repro.conformance.reference.ReferenceInterpreter`.
This module is the *hardware-shaped* execution path, built from the
dataplane pieces the way the paper describes its prototype:

- the packet is parsed by the unrolled DIP parse graph
  (:func:`repro.dataplane.parser.dip_parse_graph`) into a PHV -- no
  loops, ``FN_Num`` bounds how many FN states fire;
- one pipeline stage exists per unrolled FN slot ("we use the simple
  if-else statement with FN_Num to determine how many field operations
  to perform");
- each stage holds an exact-match *dispatch table* keyed on the slot's
  operation key ("we pre-write the required operation modules on the
  data plane and use the operation key to match these operation
  modules"); a miss means the FN is unsupported at this node;
- matched entries invoke the pre-installed operation module against
  the packet's FN-locations buffer (the part of the packet the PHV
  does not hold -- real PISA programs likewise keep payloads in the
  packet buffer).

``tests/dataplane/test_dip_pipeline.py`` proves this path decides
exactly like ``RouterProcessor`` for every protocol realization, and
the conformance matrix holds both to the reference interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.fn import FieldOperation
from repro.core.header import DipHeader
from repro.core.operations.base import Decision, OperationContext
from repro.core.packet import DipPacket
from repro.core.program import is_path_critical
from repro.core.registry import OperationRegistry, default_registry
from repro.core.state import NodeState
from repro.dataplane.parser import dip_parse_graph
from repro.dataplane.pipeline import PipelineConfig
from repro.dataplane.tables import ExactTable, TableEntry
from repro.errors import (
    FieldRangeError,
    OperationError,
    PipelineConstraintError,
)
from repro.util.bitview import BitView


@dataclass
class PipelineResult:
    """Outcome of one pipeline traversal."""

    decision: Decision
    ports: Tuple[int, ...] = ()
    packet: Optional[DipPacket] = None
    stages_executed: int = 0
    notes: List[str] = field(default_factory=list)
    unsupported_key: Optional[int] = None


class DipPipeline:
    """Stage-per-FN-slot pipeline with key-dispatch tables.

    Parameters
    ----------
    state:
        The node's protocol state (shared with any reference processor
        for equivalence testing).
    registry:
        Installed operation modules; each becomes one dispatch-table
        entry in every stage.
    max_fns:
        The unroll budget: packets carrying more router FNs than stages
        cannot be programmed (PipelineConstraintError), mirroring the
        hardware limitation the paper works around.
    """

    def __init__(
        self,
        state: NodeState,
        registry: Optional[OperationRegistry] = None,
        max_fns: int = 12,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.state = state
        self.registry = registry if registry is not None else default_registry()
        self.config = config if config is not None else PipelineConfig()
        if max_fns > self.config.max_stages:
            raise PipelineConstraintError(
                f"{max_fns} FN stages exceed the "
                f"{self.config.max_stages}-stage budget"
            )
        self.max_fns = max_fns
        self.parser = dip_parse_graph(max_fns=max_fns)
        # One dispatch table per stage; entries are installed per
        # registered operation key (the "pre-written" modules).
        self._dispatch: List[ExactTable] = []
        for stage_index in range(max_fns):
            table = ExactTable(f"fn_dispatch_{stage_index}", size=64)
            for key in self.registry.supported_keys():
                table.insert(key, TableEntry("invoke", (key,)))
            self._dispatch.append(table)

    # ------------------------------------------------------------------
    def process(
        self,
        packet: DipPacket,
        ingress_port: int = 0,
        now: float = 0.0,
    ) -> PipelineResult:
        """Run one packet through parser + stages."""
        raw = packet.encode()
        parse = self.parser.parse(raw)
        if not parse.accepted:
            return PipelineResult(
                decision=Decision.DROP, notes=["parser rejected packet"]
            )
        phv = parse.phv
        fn_num = phv.get("fn_num")
        header = packet.header
        if fn_num > self.max_fns:
            # The parse graph is unrolled max_fns times: triples beyond
            # that never reach the PHV, so the program is infeasible.
            raise PipelineConstraintError(
                f"packet carries {fn_num} FNs; the parse graph unrolls "
                f"only {self.max_fns} FN states"
            )
        # Field ranges are validated before the hop-limit check, in
        # Algorithm 1 order: a malformed program is a codec error even
        # when the hop limit already expired (conformance regression
        # vector pipeline-fieldrange-before-hoplimit).
        header.validate_field_ranges()
        if phv.get("hop_limit") == 0:
            return PipelineResult(
                decision=Decision.DROP, notes=["hop limit expired"]
            )

        ctx = OperationContext(
            state=self.state,
            locations=BitView(header.locations),
            payload=packet.payload,
            ingress_port=ingress_port,
            now=now,
            at_host=False,
            fns=header.fns,
        )

        result = PipelineResult(decision=Decision.DROP)
        fate = None
        stage_cursor = 0
        for slot in range(fn_num):
            fn = self._fn_from_phv(phv, slot)
            if fn.tag:
                result.notes.append(f"stage {slot}: host FN skipped")
                continue
            if stage_cursor >= self.max_fns:
                raise PipelineConstraintError("ran out of pipeline stages")
            table = self._dispatch[stage_cursor]
            stage_cursor += 1
            entry = table.match(fn.key)
            if entry is None:
                if is_path_critical(fn.key):
                    result.decision = Decision.UNSUPPORTED
                    result.unsupported_key = fn.key
                    result.notes.append(
                        f"stage {slot}: unsupported path-critical key {fn.key}"
                    )
                    result.stages_executed = stage_cursor
                    return result
                result.notes.append(f"stage {slot}: key {fn.key} ignored")
                continue
            operation = self.registry.get(entry.data[0])
            try:
                op_result = operation.execute(ctx, fn)
            except (OperationError, FieldRangeError) as exc:
                result.decision = Decision.DROP
                result.notes.append(f"stage {slot}: {exc}")
                result.stages_executed = stage_cursor
                return result
            result.notes.append(f"stage {slot}: {operation.name}")
            if op_result.decision is Decision.DROP:
                result.decision = Decision.DROP
                result.notes.append(op_result.note)
                result.stages_executed = stage_cursor
                return result
            if op_result.decision in (Decision.FORWARD, Decision.DELIVER):
                fate = op_result

        result.stages_executed = stage_cursor
        if fate is None and self.state.default_port is not None:
            from repro.core.operations.base import OperationResult

            fate = OperationResult.forward(self.state.default_port)
        if fate is None:
            result.notes.append("no forwarding decision")
            return result
        result.decision = fate.decision
        result.ports = fate.ports
        if fate.decision is Decision.FORWARD:
            out_header = DipHeader(
                fns=header.fns,
                locations=ctx.locations.to_bytes(),
                next_header=header.next_header,
                hop_limit=header.hop_limit - 1,
                parallel=header.parallel,
                reserved=header.reserved,
            )
            result.packet = DipPacket(
                header=out_header, payload=packet.payload
            )
        return result

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
