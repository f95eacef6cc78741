"""Flow-level decision cache: an exact-match fast path in front of
the FN pipeline.

DIP's evaluation is about per-packet FN processing cost, and real
software dataplanes recover that cost with a *microflow cache* in front
of the full match-action walk (the split P4 targets make between the
compiled pipeline and its fast path).  PR 1's ``process_batch``
amortizes per-*program* work; this module goes one step further and
stops re-walking the pipeline for packets whose forwarding decision is
already known.

A cache entry is keyed by

- the compiled FN program (itself cached on the raw FN-definition
  bytes), and
- the *values* of the header fields the program's router FNs actually
  read,

plus the handful of per-packet inputs that can change the outcome
(ingress port, parse-cycle charge, the modular-parallelism flag,
whether trace notes are collected).  It stores a reusable
:class:`DecisionTemplate` -- output action, egress ports, a
locations-splice recipe, the paper's model-cycle totals, notes and
scratch -- so a hit skips the compiled-program walk entirely while
still reporting decision-identical ``ProcessResult``s.

**Purity.**  Only programs whose executed operations are all *pure*
(``Operation.pure``) are cacheable: pure operations are read-only
lookups whose outcome depends solely on the target-field bits, the
ingress port, and node state covered by the processor's state token
(LPM/match/source-style lookups).  Stateful operations -- the NDN
PIT/CS, OPT's MAC chain, telemetry, policing -- mutate per-node or
in-packet state per packet and force a *bypass* to the slow path.

**Invalidation.**  Every lookup compares a generation token assembled
from :class:`~repro.core.registry.OperationRegistry` (``version``), the
IP/NDN FIB ``generation`` counters and
:class:`~repro.core.state.NodeState` (``generation``); any mutation --
``insert``/``remove``/state change -- bumps a counter and atomically
invalidates the affected entries (the whole table: exact-match entries
cannot be mapped back onto LPM prefixes cheaply, and correctness beats
retention).

**Eviction.**  The table is bounded (``capacity``) with LRU
replacement, so adversarial flow churn degrades to the slow path
gracefully instead of growing without bound.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.telemetry.metrics import MetricsSnapshot

DEFAULT_CAPACITY = 65536


@dataclass(frozen=True)
class FlowCacheStats:
    """Counter snapshot of one (or several, summed) decision caches.

    Parameters
    ----------
    hits:
        Packets answered from a cached decision template.
    misses:
        Cacheable packets that had to walk the pipeline (and seeded an
        entry).
    bypasses:
        Packets sent straight to the slow path: impure (stateful)
        programs, expired hop limits, out-of-range target fields.
    evictions:
        Entries displaced by the LRU bound.
    invalidations:
        Whole-cache flushes triggered by a generation-token change
        (registry/FIB/state mutation).
    size:
        Entries currently cached.
    capacity:
        The LRU bound.
    peak_size:
        High-watermark of :attr:`size` over the cache's lifetime — the
        capacity-pressure stat.  ``peak_size == capacity`` together
        with a climbing :attr:`evictions` counter is the signature of
        adversarial key churn (cache-busting floods): the table is
        pinned at its bound and every new flow displaces a live one.
    """

    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    invalidations: int = 0
    size: int = 0
    capacity: int = 0
    peak_size: int = 0

    def __add__(self, other: "FlowCacheStats") -> "FlowCacheStats":
        return FlowCacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            bypasses=self.bypasses + other.bypasses,
            evictions=self.evictions + other.evictions,
            invalidations=self.invalidations + other.invalidations,
            size=self.size + other.size,
            capacity=self.capacity + other.capacity,
            peak_size=self.peak_size + other.peak_size,
        )

    def __sub__(self, other: "FlowCacheStats") -> "FlowCacheStats":
        """Delta of the monotonic counters (size/capacity/peak stay
        absolute)."""
        return FlowCacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            bypasses=self.bypasses - other.bypasses,
            evictions=self.evictions - other.evictions,
            invalidations=self.invalidations - other.invalidations,
            size=self.size,
            capacity=self.capacity,
            peak_size=self.peak_size,
        )

    def then(self, later: "FlowCacheStats") -> "FlowCacheStats":
        """Associative fold across *time* for the same cache(s): two
        runs of one engine, or two worker incarnations of one shard.
        Monotonic counters sum; ``size``/``capacity`` take the later
        value and ``peak_size`` the max -- summing them would count
        one cache once per run."""
        return FlowCacheStats(
            hits=self.hits + later.hits,
            misses=self.misses + later.misses,
            bypasses=self.bypasses + later.bypasses,
            evictions=self.evictions + later.evictions,
            invalidations=self.invalidations + later.invalidations,
            size=later.size,
            capacity=later.capacity,
            peak_size=max(self.peak_size, later.peak_size),
        )

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for JSON output."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "size": self.size,
            "capacity": self.capacity,
            "peak_size": self.peak_size,
        }

    def snapshot(self) -> MetricsSnapshot:
        """The unified telemetry view (monotonic counters + gauges)."""
        return MetricsSnapshot(
            counters={
                "flowcache_hits_total": self.hits,
                "flowcache_misses_total": self.misses,
                "flowcache_bypasses_total": self.bypasses,
                "flowcache_evictions_total": self.evictions,
                "flowcache_invalidations_total": self.invalidations,
            },
            gauges={
                "flowcache_size": self.size,
                "flowcache_capacity": self.capacity,
                "flowcache_peak_size": self.peak_size,
            },
        )

    @classmethod
    def total(cls, parts: Iterable["FlowCacheStats"]) -> "FlowCacheStats":
        """Sum across shards (zero stats when ``parts`` is empty)."""
        out = cls()
        for part in parts:
            out = out + part
        return out


class DecisionTemplate:
    """One cached forwarding decision, reusable across a flow's packets.

    Everything in a :class:`~repro.core.processor.ProcessResult` that is
    a pure function of the cache key is stored verbatim (decision,
    ports, notes, cycle totals, unsupported key, scratch); the output
    packet is stored as a *splice recipe* against the input locations
    (``loc_splices``), because untouched location bits flow through from
    each packet while edited spans are key-determined.  Today's pure
    operations never edit the locations, so the recipe is almost always
    ``None`` ("unchanged") -- but the diff keeps the cache correct for
    any future pure-and-deterministic editor.
    """

    __slots__ = (
        "decision",
        "ports",
        "notes",
        "cycles",
        "cycles_sequential",
        "cycles_parallel",
        "unsupported_key",
        "scratch",
        "has_packet",
        "loc_splices",
        "failure",
    )

    def __init__(
        self,
        decision,
        ports,
        notes,
        cycles,
        cycles_sequential,
        cycles_parallel,
        unsupported_key,
        scratch,
        has_packet,
        loc_splices,
        failure=None,
    ) -> None:
        self.decision = decision
        self.ports = ports
        self.notes = notes
        self.cycles = cycles
        self.cycles_sequential = cycles_sequential
        self.cycles_parallel = cycles_parallel
        self.unsupported_key = unsupported_key
        self.scratch = scratch
        self.has_packet = has_packet
        self.loc_splices = loc_splices
        self.failure = failure


def splice_spans(
    before: bytes, after: bytes
) -> Optional[Tuple[Tuple[int, bytes], ...]]:
    """Contiguous differing runs of two equal-length byte strings.

    Returns ``None`` when the strings are identical (the common case:
    pure operations read but do not edit), otherwise
    ``((offset, replacement), ...)`` spans to splice onto a copy.
    """
    if before == after:
        return None
    spans = []
    start = None
    for index in range(len(before)):
        if before[index] != after[index]:
            if start is None:
                start = index
        elif start is not None:
            spans.append((start, after[start:index]))
            start = None
    if start is not None:
        spans.append((start, after[start:]))
    return tuple(spans)


def template_from_result(result, in_locations: bytes) -> Optional[DecisionTemplate]:
    """Build a template from a slow-path result, or None when unsafe.

    ``None`` is only returned for shapes the splice recipe cannot
    express (an output locations region of a different length), which
    no current operation produces.
    """
    has_packet = result.packet is not None
    loc_splices = None
    if has_packet:
        out_locations = result.packet.header.locations
        if len(out_locations) != len(in_locations):
            return None
        loc_splices = splice_spans(in_locations, out_locations)
    return DecisionTemplate(
        decision=result.decision,
        ports=result.ports,
        notes=result.notes,
        cycles=result.cycles,
        cycles_sequential=result.cycles_sequential,
        cycles_parallel=result.cycles_parallel,
        unsupported_key=result.unsupported_key,
        scratch=dict(result.scratch),
        has_packet=has_packet,
        loc_splices=loc_splices,
        failure=result.failure,
    )


class FlowDecisionCache:
    """Bounded, LRU, exact-match decision cache with generation checks.

    Parameters
    ----------
    capacity:
        Maximum number of cached flow decisions; the least recently
        used entry is evicted beyond it.

    The cache itself is policy-free about *what* a key is -- the
    processor assembles keys (program identity + read-field values +
    per-packet inputs) and tokens (registry/FIB/state generations); the
    cache stores, bounds and invalidates.
    """

    __slots__ = (
        "capacity",
        "hits",
        "misses",
        "bypasses",
        "evictions",
        "invalidations",
        "peak_size",
        "_entries",
        "_token",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError("flow cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0
        self.invalidations = 0
        self.peak_size = 0
        self._entries: "OrderedDict[Any, DecisionTemplate]" = OrderedDict()
        self._token: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # invalidation
    # ------------------------------------------------------------------
    def sync(self, token: tuple) -> None:
        """Flush every entry when the generation token moved.

        Called once per *packet* by the processor, so a registry/FIB
        mutation between two packets of one batch -- not just between
        ``process_batch`` calls -- can never serve a stale decision.
        """
        if token != self._token:
            if self._entries:
                self._entries.clear()
                self.invalidations += 1
            self._token = token

    def clear(self) -> None:
        """Drop every entry (counted as one invalidation when non-empty)."""
        if self._entries:
            self._entries.clear()
            self.invalidations += 1
        self._token = None

    # ------------------------------------------------------------------
    # lookup / insert
    # ------------------------------------------------------------------
    def get(self, key) -> Optional[DecisionTemplate]:
        """The cached template for ``key`` (refreshing LRU), or None."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key, template: DecisionTemplate) -> None:
        """Insert/update one decision, evicting LRU beyond capacity."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = template
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
        if len(entries) > self.peak_size:
            self.peak_size = len(entries)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def stats(self) -> FlowCacheStats:
        """Counter snapshot for reports and CLI tables."""
        return FlowCacheStats(
            hits=self.hits,
            misses=self.misses,
            bypasses=self.bypasses,
            evictions=self.evictions,
            invalidations=self.invalidations,
            size=len(self._entries),
            capacity=self.capacity,
            peak_size=self.peak_size,
        )
