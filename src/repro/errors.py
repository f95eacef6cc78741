"""Exception hierarchy for the DIP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class.  The sub-hierarchies mirror the
package layout: codec errors for header parsing, operation errors for FN
execution, protocol errors for the substrate protocols, and simulation
errors for the network simulator.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class CodecError(ReproError):
    """A packet or header could not be encoded or decoded."""


class TruncatedHeaderError(CodecError):
    """The byte buffer ended before the advertised header did."""


class FieldRangeError(CodecError):
    """A field location/length pair points outside the FN locations blob."""


class HeaderValueError(CodecError):
    """A header field carries a value outside its legal range."""


class OperationError(ReproError):
    """An FN operation module failed while executing."""


class UnknownOperationError(OperationError):
    """The packet carries an operation key this node does not support."""

    def __init__(self, key: int, message: str = "") -> None:
        super().__init__(message or f"unsupported operation key {key}")
        self.key = key


class OperationStateError(OperationError):
    """An operation needs router/host state that is missing or invalid."""


class ProcessingLimitError(ReproError):
    """A packet exceeded the router's per-packet processing limits."""


class ProtocolError(ReproError):
    """A substrate protocol (IP/NDN/OPT/XIA) violated its own rules."""


class RoutingError(ProtocolError):
    """No route/next hop could be determined for a packet."""


class SimulationError(ReproError):
    """The discrete-event simulator was used incorrectly."""


class FabricError(SimulationError):
    """The co-simulation fabric was miswired or stalled.

    A stall means conservative synchronization cannot make progress --
    in practice a zero-lookahead channel cycle, which the fabric
    rejects rather than deadlocks on (zero-latency channels are legal
    only on acyclic paths or with closed sources).
    """


class EngineError(ReproError):
    """The forwarding engine failed outside any single packet's walk."""


class EngineWorkerError(EngineError):
    """A shard worker died (crash, pipe EOF, or heartbeat timeout).

    Raised by the supervisor only after the restart budget is spent;
    within the budget, worker death is handled by respawn + retry and
    never surfaces as an exception.
    """


class DataplaneError(ReproError):
    """The PISA dataplane model rejected a program or a packet."""


class PipelineConstraintError(DataplaneError):
    """A compiled program violates the Tofino-like constraint model."""
