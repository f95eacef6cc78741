"""The lowered FN program: the per-program half of Algorithm 1, done once.

A DIP *program* is the FN-definition region of the header.  Packets of
one flow (and of most workloads) repeat the same program, so everything
Algorithm 1 derives from the definitions alone -- module dispatch, the
Section 2.4 path-critical judgement, model cycles, the modular
parallelism analysis, the flow-cache purity class and read plan -- is
lowered once into a :class:`Program` and shared by every back end: the
scalar walk (:meth:`RouterProcessor.walk`), the flow cache in front of
it, the columnar kernels (:mod:`repro.engine.columnar`) and the PISA
pipeline (:class:`repro.dataplane.dip_pipeline.DipPipeline`), whose
stage budget :data:`MAX_STAGES` is also what the composition linter
checks.

:class:`ProgramCache` is the one owner of a processor's (or a PISA
pipeline's) programs: the only place that looks one up, drops them
when the registry changes, and bounds how many a hostile traffic mix
can make it keep.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.core.fn import FN_ENCODED_SIZE, FieldOperation, OperationKey
from repro.core.registry import OperationRegistry

# What the walk does at one step of a lowered program.
STEP_EXECUTE = 0      # run the operation module
STEP_HOST_SKIP = 1    # host-tagged FN: routers skip it
STEP_IGNORE = 2       # no module installed, safe to ignore
STEP_UNSUPPORTED = 3  # no module installed, path-critical: stop and signal

# The match-action stage budget (Tofino-shaped): the PISA parse graph
# unrolls at most this many FN states, so a program with more FNs
# cannot be programmed (Section 4.1's "if-else with FN_Num").
MAX_STAGES = 12

# Keys whose module needs a second pipeline pass when backed by AES.
_RECIRCULATING_KEYS = (OperationKey.MAC, OperationKey.MARK, OperationKey.VERIFY)

# Most cache entries (two keys per program) a ProgramCache keeps before
# it starts over.  Honest traffic carries a handful of compositions;
# only a stream of ever-new FN definitions gets near this.
PROGRAM_CACHE_BOUND = 4096

# Scratch-space families: an FN writing a family conflicts with a later
# FN reading it, even when their target fields do not overlap.  This is
# what keeps F_parm -> F_mark ordered under modular parallelism.
_SCRATCH_WRITES = {
    OperationKey.SOURCE: {"source"},
    OperationKey.PARM: {"opt"},
    OperationKey.DAG: {"xia"},
    OperationKey.PASS: {"passport"},
}
_SCRATCH_READS = {
    OperationKey.MAC: {"opt"},
    OperationKey.MARK: {"opt"},
    OperationKey.INTENT: {"xia"},
    OperationKey.FIB: {"passport"},
    OperationKey.PIT: {"passport"},
}


def is_path_critical(key: int) -> bool:
    """Would *any* standard module for this key be path-critical?

    A node without the module judges from the key's standardized
    semantics (Table 1); unknown keys are assumed safe to ignore,
    matching Section 2.4.
    """
    return key in (
        OperationKey.PARM,
        OperationKey.MAC,
        OperationKey.MARK,
        OperationKey.VERIFY,
    )


def _families(table: Dict[OperationKey, set], key: int) -> set:
    try:
        return table.get(OperationKey(key), set())
    except ValueError:
        return set()


def fns_conflict(a: FieldOperation, b: FieldOperation) -> bool:
    """True when two FNs must not execute in parallel."""
    if a.overlaps(b):
        return True
    a_writes = _families(_SCRATCH_WRITES, a.key)
    b_writes = _families(_SCRATCH_WRITES, b.key)
    a_touches = a_writes | _families(_SCRATCH_READS, a.key)
    b_touches = b_writes | _families(_SCRATCH_READS, b.key)
    return bool(a_writes & b_touches or b_writes & a_touches)


def parallel_levels(fns: List[FieldOperation]) -> List[int]:
    """Order-preserving level assignment for the parallelism model.

    FN *i* runs at ``1 + max(level of every earlier conflicting FN)``;
    non-conflicting FNs share a level and execute concurrently.
    """
    levels: List[int] = []
    for i, fn in enumerate(fns):
        level = 0
        for j in range(i):
            if fns_conflict(fns[j], fn):
                level = max(level, levels[j] + 1)
        levels.append(level)
    return levels


class Program:
    """One FN-definition region, lowered against a registry and cost model.

    Attributes
    ----------
    fns, fn_num, max_field_end:
        The decoded triples, their count, and the furthest target-field
        bit (host-tagged FNs included: the locations region is shared).
    steps:
        ``(step code, fn, operation or None, model cycles)`` per FN, in
        order; an ``STEP_UNSUPPORTED`` step is always the last one.
    cacheable:
        The purity class: True iff every executed operation is a pure
        lookup, so the packet's fate is an exact function of the
        read-field values (plus the per-packet inputs folded into the
        flow-cache key).
    reads, read_slices, read_cover:
        The read plan: every ``(field_loc, field_len)`` an executed FN
        reads; the same as byte slices when all are byte-aligned (else
        None); and, when those slices exactly partition ``[0,
        read_cover)`` bytes, that length -- a locations region of that
        length *is* the key value (DIP-32/128 forwarding: the locations
        are exactly dst||src).
    cum_sequential, cum_parallel:
        Cycle totals per executed-FN prefix length (sequential sum and
        critical path).  ``parallel_levels`` is prefix-stable -- an FN's
        level depends only on earlier FNs -- so an early-exit walk is a
        prefix of the full walk.
    op_counts:
        Executed FNs per operation key, for the telemetry op counters
        (program-attributed: an early-exit drop still counts the full
        program, DESIGN.md 3.8).
    stage_ends, recirculates:
        Router stages used per walked step-prefix length (one stage per
        router FN slot, executed or not), and whether an executed module
        is MAC, MARK or VERIFY -- the PISA pipeline's stage count and
        its AES second pass.
    """

    __slots__ = (
        "fns",
        "steps",
        "fn_num",
        "max_field_end",
        "cum_sequential",
        "cum_parallel",
        "cacheable",
        "reads",
        "read_slices",
        "read_cover",
        "op_counts",
        "stage_ends",
        "recirculates",
    )

    def __init__(
        self,
        fns: Tuple[FieldOperation, ...],
        registry: OperationRegistry,
        cost_model: Optional[object] = None,
    ) -> None:
        self.fns = fns
        self.fn_num = len(fns)
        self.max_field_end = max((fn.field_end for fn in fns), default=0)
        steps = []
        executed: List[Tuple[FieldOperation, int]] = []
        for fn in fns:
            if fn.tag:
                steps.append((STEP_HOST_SKIP, fn, None, 0))
                continue
            operation = registry.find(fn.key)
            if operation is None:
                if is_path_critical(fn.key):
                    # Processing stops here for every packet; later FNs
                    # are unreachable.
                    steps.append((STEP_UNSUPPORTED, fn, None, 0))
                    break
                steps.append((STEP_IGNORE, fn, None, 0))
                continue
            cycles = cost_model.fn_cycles(fn) if cost_model is not None else 0
            steps.append((STEP_EXECUTE, fn, operation, cycles))
            executed.append((fn, cycles))
        self.steps = tuple(steps)
        self.stage_ends = [0]
        for step in steps:
            self.stage_ends.append(
                self.stage_ends[-1] + (step[0] != STEP_HOST_SKIP)
            )
        self.recirculates = any(
            fn.key in _RECIRCULATING_KEYS for fn, _ in executed
        )
        self.cacheable = all(
            step[2].pure for step in steps if step[0] == STEP_EXECUTE
        )
        self.op_counts: Dict[int, int] = dict(
            Counter(fn.key for fn, _ in executed)
        )
        self.reads = tuple(
            dict.fromkeys((fn.field_loc, fn.field_len) for fn, _ in executed)
        )
        self.read_slices = None
        self.read_cover = None
        if all(not (loc | length) & 7 for loc, length in self.reads):
            self.read_slices = tuple(
                (loc >> 3, (loc + length) >> 3) for loc, length in self.reads
            )
            cover = 0
            for start, end in sorted(self.read_slices):
                if start != cover:
                    cover = None
                    break
                cover = end
            self.read_cover = cover
        levels = parallel_levels([fn for fn, _ in executed])
        self.cum_sequential = [0]
        self.cum_parallel = [0]
        per_level: Dict[int, int] = {}
        for level, (_, cycles) in zip(levels, executed):
            self.cum_sequential.append(self.cum_sequential[-1] + cycles)
            per_level[level] = max(per_level.get(level, 0), cycles)
            self.cum_parallel.append(sum(per_level.values()))


class ProgramCache:
    """The one owner of a processor's (or a PISA pipeline's) lowered programs.

    Every program is stored under two keys -- its decoded ``fns`` tuple
    (``DipPacket`` input) and its raw FN-definition bytes (wire input);
    the triple codec is a bijection, so either key derives the other.
    Everything is dropped when ``registry.version`` moves (programs
    capture module lookups), on :meth:`clear` (e.g. a swapped cost
    model), and when a new program would push the table past
    ``PROGRAM_CACHE_BOUND``.  ``generation`` counts the drops; it is part
    of :meth:`RouterProcessor.state_token`, so whatever is keyed on
    program objects -- flow-cache entries, columnar kernels -- is
    flushed with them and is bounded by the same constant.

    ``cost_model`` is what new programs are lowered against.  The cache
    deliberately holds no reference back to its processor (a cycle
    would leave every discarded processor, with its registry, to the
    cyclic collector), so :meth:`RouterProcessor.invalidate_program_cache`
    hands a swapped model over before clearing.

    :meth:`lookup` and :meth:`lookup_defs` are the two ways to a
    program.  ``get`` is the batch loop's probe and the only unsynced
    access: one dict lookup under either key, None on a miss, no
    registry check -- valid after a :meth:`sync` (once per batch).
    """

    __slots__ = (
        "registry", "cost_model", "generation", "get", "_entries", "_version",
    )

    def __init__(
        self, registry: OperationRegistry, cost_model: Optional[object] = None
    ) -> None:
        self.registry = registry
        self.cost_model = cost_model
        self.generation = 0
        self._entries: Dict[object, Program] = {}
        self._version = registry.version
        self.get = self._entries.get

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every program and move ``generation``."""
        self._entries.clear()
        self._version = self.registry.version
        self.generation += 1

    def sync(self) -> None:
        """Drop every program when the registry changed under them."""
        if self._version != self.registry.version:
            self.clear()

    def lookup(self, fns: Tuple[FieldOperation, ...]) -> Program:
        """The program for a decoded FN tuple, lowered on first sight."""
        self.sync()
        program = self._entries.get(fns)
        if program is None:
            program = self._lower(fns, b"".join(fn.encode() for fn in fns))
        return program

    def lookup_defs(self, defs: bytes) -> Program:
        """The program for raw FN-definition bytes (whole triples)."""
        self.sync()
        program = self._entries.get(defs)
        if program is None:
            fns = tuple(
                FieldOperation.decode(defs[i : i + FN_ENCODED_SIZE])
                for i in range(0, len(defs), FN_ENCODED_SIZE)
            )
            program = self._lower(fns, defs)
        return program

    def _lower(self, fns: Tuple[FieldOperation, ...], defs: bytes) -> Program:
        entries = self._entries
        if len(entries) + 2 > PROGRAM_CACHE_BOUND:
            self.clear()
        program = Program(fns, self.registry, self.cost_model)
        entries[fns] = entries[defs] = program
        return program
