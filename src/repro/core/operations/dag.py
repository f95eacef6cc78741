"""F_DAG (key 10) and F_intent (key 11): the XIA realization.

"We set the header of XIA in the FN locations and use these two
operation modules to parse the directed acyclic graph and handle the
intent" (Section 3).

- ``F_DAG`` parses the embedded XIA header and advances the traversal
  pointer across DAG nodes that are local to this router, leaving the
  parsed structures in scratch;
- ``F_intent`` then decides the packet's fate: deliver when the intent
  was reached, otherwise forward along the highest-priority routable
  successor and write the updated pointer back into the FN locations.
"""

from __future__ import annotations

from repro.core.fn import FieldOperation
from repro.core.operations.base import (
    Decision,
    Operation,
    OperationContext,
    OperationResult,
)
from repro.errors import (
    CodecError,
    OperationError,
    OperationStateError,
    ProtocolError,
)
from repro.protocols.xia.router import XiaHeader


class DagOperation(Operation):
    """Parse the XIA header and advance through local DAG nodes."""

    key = 10
    name = "F_DAG"

    def execute(
        self, ctx: OperationContext, fn: FieldOperation
    ) -> OperationResult:
        raw = ctx.locations.get_bits(fn.field_loc, fn.field_len)
        try:
            header = XiaHeader.decode(raw)
        except (CodecError, ProtocolError) as exc:
            raise OperationError(f"{self.name}: malformed XIA header: {exc}") from None
        if header.hop_limit == 0:
            return OperationResult.drop("XIA hop limit expired")

        table = ctx.state.xia_table
        dag = header.dag
        current = header.last_visited
        delivered = False
        advanced = True
        while advanced:
            advanced = False
            for successor in dag.successors(current):
                if table.is_local(dag.nodes[successor].xid):
                    current = successor
                    if successor == dag.intent_index:
                        delivered = True
                    advanced = not delivered
                    break
            if delivered:
                break

        ctx.scratch["xia_header"] = header
        ctx.scratch["xia_current"] = current
        ctx.scratch["xia_delivered"] = delivered
        ctx.scratch["xia_field"] = (fn.field_loc, fn.field_len)
        return OperationResult.proceed(
            note=f"DAG parsed; at node {current}"
            + (" (intent local)" if delivered else "")
        )


class IntentOperation(Operation):
    """Decide delivery/forwarding for the parsed DAG."""

    key = 11
    name = "F_intent"

    def execute(
        self, ctx: OperationContext, fn: FieldOperation
    ) -> OperationResult:
        header = ctx.scratch.get("xia_header")
        if header is None:
            raise OperationStateError(
                f"{self.name} requires F_DAG to run first"
            )
        if ctx.scratch.get("xia_delivered"):
            return OperationResult.deliver(note="XIA intent reached")

        current = ctx.scratch["xia_current"]
        dag = header.dag
        table = ctx.state.xia_table
        for successor in dag.successors(current):
            port = table.lookup(dag.nodes[successor].xid)
            if port is not None:
                updated = header.advanced(current)
                field_loc, field_len = ctx.scratch["xia_field"]
                ctx.locations.set_bits(field_loc, field_len, updated.encode())
                return OperationResult(
                    decision=Decision.FORWARD,
                    ports=(port,),
                    note=(
                        f"forward toward {dag.nodes[successor].xid} "
                        f"via port {port}"
                    ),
                )
        return OperationResult.drop("XIA: no local or routable successor")
