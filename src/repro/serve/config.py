"""ServeConfig: the daemon's knob set.

One frozen dataclass shared by the CLI (``repro serve``), the daemon,
the load-generator defaults and the tests, so there is exactly one
place where serving defaults live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError

DEFAULT_PORT = 9310
DEFAULT_METRICS_PORT = 9311


@dataclass(frozen=True)
class ServeConfig:
    """Shape of one serving daemon.

    ``batch_max``/``batch_timeout_ms`` are the two batching triggers:
    a flush happens when ``batch_max`` packets are pending *or*
    ``batch_timeout_ms`` after the first pending packet, whichever
    comes first (size-based for throughput, time-based so a trickle
    never waits forever).  ``max_inflight`` is the admission bound:
    packets arriving while that many are already pending are *shed* --
    refused with an accounted reply, never silently lost -- which
    extends the engine's conservation law to
    ``offered == processed + dropped + dead-lettered + shed``.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    metrics_port: int = DEFAULT_METRICS_PORT
    shards: int = 2
    backend: str = "serial"
    batch_max: int = 64
    batch_timeout_ms: float = 5.0
    max_inflight: int = 4096
    ring_capacity: int = 8192
    flow_cache: bool = True
    # Bounded-state knobs for the default content-delivery node.
    cs_capacity: int = 256
    cs_ttl: Optional[float] = 30.0
    pit_capacity: Optional[int] = 2048
    pit_eviction: str = "lru"
    content_count: int = 512
    seed: int = 7
    # Admission-side attack mitigation (DESIGN.md 3.14): a
    # MitigationGate in front of the ingress queue, refusing
    # rate-limited / quarantined datagrams before they take a queue
    # slot.  Off by default; ServeCore also accepts a full
    # MitigationConfig override for non-default gate shapes.
    mitigation: bool = False
    # Optional run bounds (smoke tests / scripted scenarios); None
    # means serve until signalled.
    max_seconds: Optional[float] = None
    max_packets: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shards <= 0:
            raise SimulationError("shards must be positive")
        if self.batch_max <= 0:
            raise SimulationError("batch_max must be positive")
        if self.batch_timeout_ms < 0:
            raise SimulationError("batch_timeout_ms must be >= 0")
        if self.max_inflight <= 0:
            raise SimulationError("max_inflight must be positive")
        if self.ring_capacity < self.batch_max:
            raise SimulationError("ring_capacity must be >= batch_max")
        if self.cs_capacity < 0:
            raise SimulationError("cs_capacity must be >= 0")
        if self.content_count <= 0:
            raise SimulationError("content_count must be positive")
        if self.cs_ttl is not None and self.cs_ttl <= 0:
            raise SimulationError("cs_ttl must be positive (or None)")
        if self.pit_capacity is not None and self.pit_capacity <= 0:
            raise SimulationError("pit_capacity must be positive (or None)")
        if self.max_packets is not None and self.max_packets < 0:
            raise SimulationError("max_packets must be >= 0 (or None)")
