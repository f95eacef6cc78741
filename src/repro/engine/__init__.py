"""Batched, sharded forwarding engine (scale-out around Algorithm 1).

The paper's router walk processes one packet at a time; this package
adds the surrounding machinery a software dataplane needs to push
packets through that walk at rate:

- :mod:`repro.engine.rings` -- the bounded rings between the
  dispatcher and the worker shards, as per-run accounting: which
  batches leave, in what order, and what backpressure dropped;
- :mod:`repro.engine.dispatch` -- RSS-style flow hashing over the FN
  program and its forwarding-relevant fields, so one flow always lands
  on one shard (per-flow order is preserved);
- :mod:`repro.engine.workers` -- shard workers, each owning a private
  :class:`~repro.core.processor.RouterProcessor` and node state;
- :mod:`repro.engine.transport` -- how a batch reaches a shard:
  inline (deterministic, in this process) or over pipes / shared
  memory to ``multiprocessing`` workers;
- :mod:`repro.engine.engine` -- the :class:`ForwardingEngine` facade:
  one supervised dispatch/submit/collect loop over either transport.
"""

from repro.core.flowcache import FlowCacheStats, FlowDecisionCache
from repro.engine.clock import ManualClock, timeless_clock, wall_clock
from repro.engine.dispatch import FLOW_DISPATCH_KEYS, FlowDispatcher
from repro.engine.engine import (
    DeadLetter,
    EngineConfig,
    EngineReport,
    ForwardingEngine,
    PacketOutcome,
    ShardReport,
)
from repro.engine.rings import RingStats

__all__ = [
    "FLOW_DISPATCH_KEYS",
    "FlowDispatcher",
    "DeadLetter",
    "EngineConfig",
    "EngineReport",
    "FlowCacheStats",
    "FlowDecisionCache",
    "ForwardingEngine",
    "ManualClock",
    "PacketOutcome",
    "ShardReport",
    "RingStats",
    "timeless_clock",
    "wall_clock",
]
