"""Operation module framework.

An operation module is "a functional module that takes the field as
input and performs pre-defined calculations or matches, and then
modifies the packet field or determines the packet fate" (Section 2.1).
Concretely each module receives:

- the FN triple naming its target field, and
- an :class:`OperationContext` holding a mutable bit view of the FN
  locations, the node's state, and a per-packet scratch dict through
  which cooperating FNs pass parameters (e.g. ``F_parm`` hands the
  derived dynamic key to ``F_MAC`` and ``F_mark``),

and returns an :class:`OperationResult` that either lets processing
continue or fixes the packet's fate (forward/deliver/drop).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from typing import Any, Dict, Tuple

from repro.core.fn import FieldOperation
from repro.core.state import NodeState
from repro.util.bitview import BitView


class Decision(Enum):
    """What an operation (or the whole walk) decided for the packet."""

    CONTINUE = "continue"      # no fate fixed; keep executing FNs
    FORWARD = "forward"        # send out of the given port(s)
    DELIVER = "deliver"        # packet terminates at this node
    DROP = "drop"              # discard
    UNSUPPORTED = "unsupported"  # FN not supported; signal the source
    ERROR = "error"            # poison packet quarantined (walk raised)


@dataclass(frozen=True)
class OperationResult:
    """Outcome of executing one FN.

    Parameters
    ----------
    decision:
        The packet-fate contribution of this operation.
    ports:
        Egress ports when forwarding (PIT satisfaction may name many).
    note:
        Human-readable trace of what happened.
    state_bytes:
        Per-packet state consumed (charged against the limits).
    """

    decision: Decision = Decision.CONTINUE
    ports: Tuple[int, ...] = ()
    note: str = ""
    state_bytes: int = 0

    @classmethod
    def proceed(cls, note: str = "") -> "OperationResult":
        """Shorthand for a fate-neutral result."""
        return cls(decision=Decision.CONTINUE, note=note)

    @classmethod
    def forward(cls, *ports: int, note: str = "") -> "OperationResult":
        """Shorthand for a forwarding result."""
        return cls(decision=Decision.FORWARD, ports=tuple(ports), note=note)

    @classmethod
    def deliver(cls, note: str = "") -> "OperationResult":
        """Shorthand for local delivery."""
        return cls(decision=Decision.DELIVER, note=note)

    @classmethod
    def drop(cls, note: str) -> "OperationResult":
        """Shorthand for discarding the packet."""
        return cls(decision=Decision.DROP, note=note)


@dataclass
class OperationContext:
    """Everything one packet walk exposes to its operations.

    Parameters
    ----------
    state:
        The executing node's protocol state.
    locations:
        Mutable bit view of the FN locations region (a working copy;
        the processor reassembles the header from it afterwards).
    payload:
        The packet payload (host verification needs it).
    ingress_port:
        Where the packet came in.
    now:
        Current (simulated) time in seconds.
    at_host:
        True when host-tagged FNs execute (end-host processing).
    fns:
        All FNs in the packet, for operations that need the global view.
    scratch:
        Per-packet blackboard for cooperating FNs.
    """

    state: NodeState
    locations: BitView
    payload: bytes = b""
    ingress_port: int = 0
    now: float = 0.0
    at_host: bool = False
    fns: Tuple[FieldOperation, ...] = ()
    scratch: Dict[str, Any] = dataclass_field(default_factory=dict)


class Operation:
    """Base class for operation modules.

    Subclasses set :attr:`key` and :attr:`name`, and implement
    :meth:`execute`.  ``path_critical`` marks operations that every
    on-path AS must support: when a router lacks such an operation it
    must signal the source instead of silently ignoring the FN
    (Section 2.4, heterogeneous configuration).

    ``pure`` marks operations whose result is deterministic in the
    read-field bits (every executed FN's target field), the ingress
    port, and node state covered by the processor's generation token
    (FIBs, locality sets, the XIA table, the registry) -- never in
    ``ctx.now``, the payload, per-packet mutable state (PIT, content
    store, policers) or scratch left by impure FNs.  A pure operation
    may write key-determined scratch values and rewrite read fields in
    place (F_intent's XIA pointer); it changes nothing else.  Programs
    made solely of pure operations are eligible for the flow-level
    decision cache (:mod:`repro.core.flowcache`); a single impure FN
    forces the whole program to bypass it.
    """

    key: int = 0
    name: str = "op"
    path_critical: bool = False
    pure: bool = False

    def execute(
        self, ctx: OperationContext, fn: FieldOperation
    ) -> OperationResult:
        """Apply this operation to ``fn``'s target field."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Operation {self.name} key={self.key}>"
