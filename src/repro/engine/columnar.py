"""Columnar batch specializer: compile an FN composition into a kernel.

A DIP composition is a *static program* over shared L3 core functions
(Section 3): the FN-definition region fixes which operations run, in
which order, over which header fields.  The scalar batch path already
exploits that by lowering each program once
(:class:`~repro.core.program.Program`); this module takes
the next step the paper's P4 comparison implies and compiles *pure*
compositions into columnar numpy kernels over struct-of-arrays packet
fields:

- a vectorized wire decoder scatters the basic-header fields of a
  whole batch into int arrays (one gather per field, not one Python
  header object per packet);
- each executed FN lowers to a vectorized op -- F_32_match becomes an
  ``np.isin`` over the locality set plus a longest-prefix match
  rewritten as a ``searchsorted`` over the FIB's disjoint covering
  intervals, F_source becomes a byte-gather into a source-value
  column;
- a boolean "alive" mask carries drops so divergent packets simply
  stop participating, and anything the kernel cannot express
  byte-exactly (impure ops, unsupported path-critical FNs, truncated
  or out-of-range packets, budget-marginal packets) falls out to the
  scalar batch path, which is decision-identical by construction.

Kernels are cached per FN-definition bytes and keyed off the same
generation token the flow cache and the reconfig protocol use
(:meth:`RouterProcessor.state_token`), so ``/reconfig`` hot-swaps and
FIB/locality edits invalidate compiled kernels for free -- and, because
the token carries the program cache's generation, the kernel cache is
bounded by the same constant as the programs it was lowered from.

The specializer is optional everywhere: without numpy (or for any
composition outside the supported pure subset) every packet takes the
scalar path and results are bit-identical.  Decision identity against
the reference interpreter is enforced by the conformance matrix's
``columnar`` executor (corpus replay + differential fuzzing).
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, List, Optional, Sequence

try:  # numpy ships with the benchmark toolchain but stays optional
    import numpy as _np
except Exception:  # pragma: no cover - numpy-less deployment
    _np = None

from repro.core.fn import FN_ENCODED_SIZE
from repro.core.header import BASIC_HEADER_SIZE, DipHeader
from repro.core.operations.base import Decision
from repro.core.operations.match import Match32Operation
from repro.core.operations.source import SourceOperation
from repro.core.packet import DipPacket
from repro.core.processor import ProcessResult, RouterProcessor
from repro.core.program import (
    STEP_EXECUTE,
    STEP_HOST_SKIP,
    STEP_IGNORE,
    Program,
)

_MISSING = object()

# Plan-step opcodes (what one executed FN lowered to).
_OP_MATCH32 = 0
_OP_SOURCE = 1

# Packet-fate codes inside the kernel's columns.
_FATE_NONE = 0
_FATE_FORWARD = 1
_FATE_DELIVER = 2
_FATE_DROP = 3

_HOP_EXPIRED_NOTES = ("hop limit expired",)
_NO_DECISION_NOTES = ("no forwarding decision",)
_STATIC_EGRESS_NOTES = ("static egress (default port)",)


def columnar_available() -> bool:
    """True when the numpy kernels can run at all."""
    return _np is not None


class ColumnarStats:
    """Counters describing what the specializer actually did."""

    __slots__ = (
        "kernels_compiled",
        "kernel_refusals",
        "invalidations",
        "vectorized_packets",
        "fallback_packets",
    )

    def __init__(self) -> None:
        self.kernels_compiled = 0
        self.kernel_refusals = 0
        self.invalidations = 0
        self.vectorized_packets = 0
        self.fallback_packets = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def _lpm_intervals(fib):
    """Rewrite an LPM trie as disjoint covering intervals.

    Every prefix contributes its start and one-past-end addresses as
    boundaries; between consecutive boundaries the longest match is
    constant, so one trie lookup per boundary yields a sorted
    ``starts`` array and a parallel ``ports`` array (-1 = no route)
    answering any query with ``searchsorted(starts, addr, "right")-1``.
    """
    width = 32
    limit = 1 << width
    boundaries = {0}
    for prefix, length, _value in fib.routes():
        boundaries.add(prefix)
        end = prefix + (1 << (width - length))
        if end < limit:
            boundaries.add(end)
    starts = sorted(boundaries)
    ports = []
    for start in starts:
        value = fib.lookup(start)
        if value is None:
            ports.append(-1)
        elif isinstance(value, int) and not isinstance(value, bool):
            ports.append(value)
        else:
            return None  # non-port FIB values: not kernelizable
    return (
        _np.asarray(starts, dtype=_np.int64),
        _np.asarray(ports, dtype=_np.int64),
    )


class _Kernel:
    """One compiled program: vectorized Algorithm 1 over a column batch."""

    __slots__ = (
        "program",
        "defs_end",
        "plan",
        "header_cache",
        "note_steps",
        "local_arr",
        "lpm_starts",
        "lpm_ports",
        "default_port",
        "max_field_end",
        "read_span",
        "max_cycles",
        "total_fn_cycles",
        "cum_seq",
        "cum_par",
        "cost_base",
        "cost_per_header_byte",
        "cost_per_wire_byte",
        "has_cost",
    )

    def run(
        self,
        spec: "ColumnarSpecializer",
        packets: Sequence[bytes],
        idxs: Sequence[int],
        out: List[object],
        collect_notes: bool,
        columns=None,
    ) -> List[int]:
        """Vectorized walk over one program group.

        Fills ``out[i]`` with a :class:`ProcessResult` for every packet
        the kernel could decide and returns the indices it could not
        (truncated, field range beyond the locations region, or close
        enough to the cycle budget that the scalar path must arbitrate).

        ``columns`` carries pre-decoded ``(buf, sizes, offs)`` SoA
        arrays when the caller already joined the whole batch (the
        homogeneous fast path); otherwise the group is joined here.
        """
        np = _np
        k = len(idxs)
        if columns is not None:
            joined, buf, sizes, offs = columns
        else:
            group = [packets[i] for i in idxs]
            joined = b"".join(group)
            buf = np.frombuffer(joined, dtype=np.uint8)
            sizes = np.fromiter(map(len, group), dtype=np.int64, count=k)
            offs = np.cumsum(sizes) - sizes

        de = self.defs_end
        param = (buf[offs + 4].astype(np.int64) << 8) | buf[offs + 5]
        loc_len = (param >> 1) & 0x3FF
        total = de + loc_len
        # Scalar arbitration: truncated packets raise the reference
        # codec errors; fields past the locations region raise
        # FieldRangeError; packets near the cycle budget need the
        # exact per-step charge sequence.
        fb = (total > sizes) | (loc_len << 3 < self.max_field_end)
        if self.has_cost:
            parse = (
                self.cost_base
                + self.cost_per_header_byte * total
                + (self.cost_per_wire_byte * sizes).astype(np.int64)
            )
            if self.max_cycles:
                fb = fb | (parse + self.total_fn_cycles > self.max_cycles)
        else:
            parse = np.zeros(k, dtype=np.int64)
        ok = ~fb

        hop = buf[offs + 3].astype(np.int64)
        hop0 = ok & (hop == 0)
        alive = ok & ~hop0

        fate = np.zeros(k, dtype=np.int8)
        port = np.zeros(k, dtype=np.int64)
        executed = np.zeros(k, dtype=np.int64)
        src_seen = np.zeros(k, dtype=bool)
        src_val = np.zeros(k, dtype=np.uint64)
        src_bits = np.zeros(k, dtype=np.int64)

        records = []
        loc0 = offs + de
        # Fallback rows are masked out of every decision, but the
        # gathers below still touch their field offsets.  A truncated
        # locations region at the tail of the batch would index past
        # the buffer, so pad with zeros when (and only when) some
        # row's read span physically overruns it -- the garbage lanes
        # belong to fb rows and are overwritten by the scalar re-walk.
        if self.plan:
            max_read = int((loc0 + self.read_span).max())
            if max_read > buf.shape[0]:
                buf = np.frombuffer(
                    joined + b"\x00" * (max_read - len(joined)), np.uint8
                )
        for op, byte_off, nbytes, field_len in self.plan:
            base = loc0 + byte_off
            if op == _OP_MATCH32:
                addr = (
                    (buf[base].astype(np.int64) << 24)
                    | (buf[base + 1].astype(np.int64) << 16)
                    | (buf[base + 2].astype(np.int64) << 8)
                    | buf[base + 3]
                )
                if self.local_arr is not None:
                    local = np.isin(addr, self.local_arr)
                else:
                    local = np.zeros(k, dtype=bool)
                slot = (
                    np.searchsorted(self.lpm_starts, addr, side="right") - 1
                )
                route = self.lpm_ports[slot]
                executed += alive
                deliver = alive & local
                routed = alive & ~local
                miss = routed & (route < 0)
                hit = routed & ~miss
                fate[deliver] = _FATE_DELIVER
                fate[hit] = _FATE_FORWARD
                port[hit] = route[hit]
                fate[miss] = _FATE_DROP
                alive = alive & ~miss
                records.append((deliver, hit, miss, addr))
            else:  # _OP_SOURCE
                value = np.zeros(k, dtype=np.uint64)
                radix = np.uint64(256)
                for byte in range(nbytes):
                    value = value * radix + buf[base + byte]
                executed += alive
                src_val[alive] = value[alive]
                src_bits[alive] = field_len
                src_seen = src_seen | alive
                records.append(None)

        undecided = alive & (fate == _FATE_NONE)
        static = self.default_port is not None
        if static:
            fate[undecided] = _FATE_FORWARD
            port[undecided] = self.default_port
        else:
            fate[undecided] = _FATE_DROP

        if self.has_cost:
            seq = parse + self.cum_seq[executed]
            par = parse + self.cum_par[executed]
            eff = np.where((param & 1).astype(bool), par, seq)
        else:
            seq = par = eff = parse  # all zeros

        # Column-to-row conversion in bulk, then one tight Python loop.
        # Output slices come from ``joined`` (always bytes), and the
        # absolute slice bounds are vectorized up front so the loop
        # does no arithmetic: off..le is the full output header image
        # (basic header + defs + locations), le..pe the payload.
        fate_l = fate.tolist()
        port_l = port.tolist()
        seq_l = seq.tolist()
        par_l = par.tolist()
        eff_l = eff.tolist()
        src_seen_l = src_seen.tolist()
        src_val_l = src_val.tolist()
        src_bits_l = src_bits.tolist()
        off_l = offs.tolist()
        le_l = (offs + total).tolist()
        pe_l = (offs + sizes).tolist()
        if collect_notes:
            notes_l = self._build_notes(
                records, undecided.tolist(), static, k
            )
        elif undecided.any():
            und_note = _STATIC_EGRESS_NOTES if static else _NO_DECISION_NOTES
            notes_l = [und_note if u else () for u in undecided.tolist()]
        else:
            notes_l = repeat(())

        fns = self.program.fns
        ports_of = spec._port_tuples
        hcache = self.header_cache
        new = object.__new__
        set_attr = object.__setattr__
        result_cls = ProcessResult
        header_cls = DipHeader
        packet_cls = DipPacket
        drop = Decision.DROP
        deliver_d = Decision.DELIVER
        forward = Decision.FORWARD
        empty = ()
        fallback: List[int] = []
        # Fallback and hop-expired rows are rare, so the hot loop
        # carries no branches for them: it materializes a (possibly
        # garbage) result for every row and the fix-up passes below
        # overwrite the few exceptions.
        rows = zip(
            idxs, fate_l, port_l, eff_l, seq_l, par_l,
            src_seen_l, src_val_l, src_bits_l, notes_l,
            off_l, le_l, pe_l,
        )
        for (
            i, kind, portv, effv, seqv, parv,
            srcv, src_value, src_bitsv, notes,
            off, le, pe,
        ) in rows:
            if srcv:
                scratch = {
                    "source_address": src_value,
                    "source_address_bits": src_bitsv,
                }
            else:
                scratch = {}
            if kind == _FATE_FORWARD:
                # Pure operations never rewrite the locations region,
                # so the output reuses the input slices verbatim.  The
                # output header is fully determined by the input header
                # bytes (hop decrements 1:1), and headers are frozen,
                # so packets of one flow share one header object
                # (bounded memo per kernel, keyed by the raw header
                # image; the wire fields are decoded only on a miss).
                hkey = joined[off:le]
                header = hcache.get(hkey)
                if header is None:
                    hparam = (hkey[4] << 8) | hkey[5]
                    header = new(header_cls)
                    set_attr(header, "__dict__", {
                        "fns": fns,
                        "locations": hkey[de:],
                        "next_header": (hkey[0] << 8) | hkey[1],
                        "hop_limit": hkey[3] - 1,
                        "parallel": bool(hparam & 1),
                        "reserved": (hparam >> 11) & 0x1F,
                    })
                    if len(hcache) >= 65536:
                        hcache.clear()
                    hcache[hkey] = header
                packet = new(packet_cls)
                set_attr(packet, "__dict__", {
                    "header": header, "payload": joined[le:pe],
                })
                ports = ports_of.get(portv)
                if ports is None:
                    ports = ports_of[portv] = (portv,)
                r = new(result_cls)
                set_attr(r, "__dict__", {
                    "decision": forward, "ports": ports, "packet": packet,
                    "notes": notes, "cycles": effv,
                    "cycles_sequential": seqv,
                    "cycles_parallel": parv,
                    "unsupported_key": None, "scratch": scratch,
                    "failure": None,
                })
                out[i] = r
            else:
                r = new(result_cls)
                set_attr(r, "__dict__", {
                    "decision": deliver_d if kind == _FATE_DELIVER else drop,
                    "ports": empty, "packet": None,
                    "notes": notes, "cycles": effv,
                    "cycles_sequential": seqv,
                    "cycles_parallel": parv,
                    "unsupported_key": None, "scratch": scratch,
                    "failure": None,
                })
                out[i] = r
        if fb.any():
            for j in np.nonzero(fb)[0].tolist():
                i = idxs[j]
                out[i] = None
                fallback.append(i)
        if hop0.any():
            for j in np.nonzero(hop0)[0].tolist():
                r = new(result_cls)
                set_attr(r, "__dict__", {
                    "decision": drop, "ports": empty, "packet": None,
                    "notes": _HOP_EXPIRED_NOTES, "cycles": 0,
                    "cycles_sequential": 0, "cycles_parallel": 0,
                    "unsupported_key": None, "scratch": {},
                    "failure": None,
                })
                out[idxs[j]] = r
        return fallback

    def _build_notes(self, records, undecided_l, static, k):
        """Exact per-packet trace notes (collect_notes=True only).

        Mirrors the scalar walk: one note per step in program order,
        the walk's own drop note last for mid-walk drops, and the
        unconditional finish note for undecided packets.
        """
        rows: List[List[str]] = [[] for _ in range(k)]
        done = [False] * k
        record_iter = iter(records)
        for action, label, variants in self.note_steps:
            if action == STEP_EXECUTE:
                record = next(record_iter)
                if record is None:  # source step: one shared note
                    for j in range(k):
                        if not done[j]:
                            rows[j].append(variants)
                    continue
                deliver, hit, miss, addr = record
                local_note, hit_note = variants
                deliver_l = deliver.tolist()
                hit_l = hit.tolist()
                miss_l = miss.tolist()
                addr_l = addr.tolist()
                for j in range(k):
                    if done[j]:
                        continue
                    if deliver_l[j]:
                        rows[j].append(local_note)
                    elif hit_l[j]:
                        rows[j].append(hit_note)
                    elif miss_l[j]:
                        rows[j].append(
                            f"{label}: no IPv4 route for {addr_l[j]:#010x}"
                        )
                        done[j] = True  # dropped: no later notes
            else:  # HOST_SKIP / IGNORE: one shared note
                for j in range(k):
                    if not done[j]:
                        rows[j].append(variants)
        finish = (
            _STATIC_EGRESS_NOTES[0] if static else _NO_DECISION_NOTES[0]
        )
        out_rows: List[tuple] = [()] * k
        for j in range(k):
            if undecided_l[j]:
                rows[j].append(finish)
            out_rows[j] = tuple(rows[j])
        return out_rows


class ColumnarSpecializer:
    """Batch specializer in front of one :class:`RouterProcessor`.

    ``process_batch`` is a drop-in for
    :meth:`RouterProcessor.process_batch` (same signature semantics,
    decision-identical results): packets whose FN program compiles to a
    kernel are decided columnar-style, everything else is delegated to
    the scalar batch path in original relative order.
    """

    def __init__(self, processor: RouterProcessor) -> None:
        self.processor = processor
        self.stats = ColumnarStats()
        # None marks a program the compiler refused.  The whole cache
        # lives and dies with the processor's state token (_sync).
        self._kernels: Dict[bytes, Optional[_Kernel]] = {}
        self._token: Optional[tuple] = None
        self._port_tuples: Dict[int, tuple] = {}

    def __len__(self) -> int:
        """Live kernel-cache entries (compiled or refused programs)."""
        return len(self._kernels)

    # ------------------------------------------------------------------
    def process_batch(
        self,
        packets,
        ingress_port: int = 0,
        now: float = 0.0,
        collect_notes: bool = False,
    ) -> List[ProcessResult]:
        processor = self.processor
        if not isinstance(packets, list):
            packets = list(packets)
        self._sync()

        n = len(packets)
        out: List[Optional[ProcessResult]] = [None] * n
        fallback: List[int] = []

        # Homogeneous fast path: a batch carrying one composition is
        # the steady state (every packet of a flow mix built from the
        # same FN program), and it needs no per-packet Python at all --
        # one join, one vectorized header compare, one kernel run.
        grouped = False
        if _np is not None and n and type(packets[0]) is bytes:
            first = packets[0]
            if len(first) >= BASIC_HEADER_SIZE:
                de = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * first[2]
                if len(first) >= de:
                    kernel = self._kernel_for(
                        first[BASIC_HEADER_SIZE:de]
                    )
                    if kernel is not None and set(
                        map(type, packets)
                    ) == {bytes}:
                        np = _np
                        joined = b"".join(packets)
                        buf = np.frombuffer(joined, np.uint8)
                        sizes = np.fromiter(
                            map(len, packets), dtype=np.int64, count=n
                        )
                        offs = np.cumsum(sizes) - sizes
                        cols = np.concatenate(
                            ([2], np.arange(BASIC_HEADER_SIZE, de))
                        )
                        if int(sizes.min()) >= de and bool(
                            (
                                buf[offs[:, None] + cols]
                                == np.frombuffer(first, np.uint8)[cols]
                            ).all()
                        ):
                            self._run(
                                kernel, packets, range(n), out, fallback,
                                collect_notes, (joined, buf, sizes, offs),
                            )
                            grouped = True

        if not grouped:
            groups: Dict[bytes, List[int]] = {}
            for i, packet in enumerate(packets):
                if type(packet) is not bytes:
                    if isinstance(packet, bytearray):
                        packet = packets[i] = bytes(packet)
                    else:
                        fallback.append(i)
                        continue
                if len(packet) < BASIC_HEADER_SIZE:
                    fallback.append(i)
                    continue
                defs_end = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * packet[2]
                key = packet[BASIC_HEADER_SIZE:defs_end]
                if len(key) != defs_end - BASIC_HEADER_SIZE:
                    fallback.append(i)  # truncated defs: codec error
                    continue
                group = groups.get(key)
                if group is None:
                    groups[key] = [i]
                else:
                    group.append(i)

            for key, idxs in groups.items():
                kernel = self._kernel_for(key)
                if kernel is None:
                    fallback.extend(idxs)
                    self.stats.fallback_packets += len(idxs)
                    continue
                self._run(kernel, packets, idxs, out, fallback, collect_notes)

        if fallback:
            fallback.sort()
            scalar = processor.process_batch(
                [packets[i] for i in fallback],
                ingress_port,
                now,
                collect_notes,
            )
            for i, result in zip(fallback, scalar):
                out[i] = result
        return out

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Drop every kernel when the processor's state token moved."""
        token = self.processor.state_token()
        if token != self._token:
            if self._kernels:
                self.stats.invalidations += 1
            self._kernels.clear()
            self._token = token

    def _run(
        self, kernel, packets, idxs, out, fallback, collect_notes, columns=None
    ) -> None:
        """One kernel run plus its bookkeeping: stats, the rows handed
        back to the scalar path, and -- telemetry on -- the decided rows
        recorded as walks of the kernel's program (rows handed back are
        recorded by the scalar path itself)."""
        rejected = kernel.run(
            self, packets, idxs, out, collect_notes, columns
        )
        fallback.extend(rejected)
        self.stats.vectorized_packets += len(idxs) - len(rejected)
        self.stats.fallback_packets += len(rejected)
        if self.processor.telemetry:
            self.processor.record_walks(
                kernel.program,
                [out[i] for i in idxs if out[i] is not None],
            )

    def _kernel_for(self, key: bytes) -> Optional[_Kernel]:
        kernel = self._kernels.get(key, _MISSING)
        if kernel is not _MISSING:
            return kernel
        program = self.processor.programs.lookup_defs(key)
        # Lowering one more program can overflow the program cache,
        # which moves the token: the kernels go with their programs.
        self._sync()
        kernel = self._kernels[key] = self._compile(program)
        if kernel is None:
            self.stats.kernel_refusals += 1
        else:
            self.stats.kernels_compiled += 1
        return kernel

    def _compile(self, program: Program) -> Optional[_Kernel]:
        """Lower one compiled program to a kernel; None = scalar only."""
        if _np is None or not program.cacheable:
            return None
        processor = self.processor
        state = processor.state
        limits = state.limits
        if limits.max_fn_count and program.fn_num > limits.max_fn_count:
            # Constant limit-drop program: not worth a kernel, and the
            # scalar path owns the exact error text.
            return None
        plan = []
        note_steps = []
        for action, fn, operation, _cycles in program.steps:
            if action == STEP_EXECUTE:
                if isinstance(operation, Match32Operation):
                    if fn.field_len != 32 or fn.field_loc & 7:
                        return None
                    plan.append((_OP_MATCH32, fn.field_loc >> 3, 4, 32))
                    label = str(fn)
                    note_steps.append(
                        (
                            STEP_EXECUTE,
                            label,
                            (
                                f"{label}: local IPv4 address",
                                f"{label}: IPv4 LPM hit",
                            ),
                        )
                    )
                elif isinstance(operation, SourceOperation):
                    if (
                        fn.field_loc & 7
                        or fn.field_len & 7
                        or fn.field_len > 64
                    ):
                        return None
                    plan.append(
                        (
                            _OP_SOURCE,
                            fn.field_loc >> 3,
                            fn.field_len >> 3,
                            fn.field_len,
                        )
                    )
                    note_steps.append(
                        (
                            STEP_EXECUTE,
                            str(fn),
                            f"{fn}: source address recorded "
                            f"({fn.field_len} bits)",
                        )
                    )
                else:
                    return None
            elif action == STEP_HOST_SKIP:
                note_steps.append(
                    (STEP_HOST_SKIP, None, f"{fn}: skipped (host operation)")
                )
            elif action == STEP_IGNORE:
                note_steps.append(
                    (STEP_IGNORE, None, f"{fn}: unsupported FN ignored")
                )
            else:  # STEP_UNSUPPORTED: scalar path owns the exact result
                return None

        kernel = _Kernel.__new__(_Kernel)
        kernel.program = program
        kernel.header_cache = {}
        kernel.defs_end = BASIC_HEADER_SIZE + FN_ENCODED_SIZE * program.fn_num
        kernel.plan = tuple(plan)
        kernel.note_steps = tuple(note_steps)
        kernel.max_field_end = program.max_field_end
        kernel.read_span = max(
            (byte_off + nbytes for _, byte_off, nbytes, _ in plan),
            default=0,
        )
        kernel.default_port = state.default_port

        if any(step[0] == _OP_MATCH32 for step in plan):
            intervals = _lpm_intervals(state.fib_v4)
            if intervals is None:
                return None
            kernel.lpm_starts, kernel.lpm_ports = intervals
            if state.local_v4:
                kernel.local_arr = _np.fromiter(
                    state.local_v4,
                    dtype=_np.int64,
                    count=len(state.local_v4),
                )
                kernel.local_arr.sort()
            else:
                kernel.local_arr = None
        else:
            kernel.lpm_starts = kernel.lpm_ports = None
            kernel.local_arr = None

        cost_model = processor.cost_model
        kernel.has_cost = cost_model is not None
        kernel.max_cycles = limits.max_cycles
        if cost_model is not None:
            kernel.cost_base = cost_model.base_overhead
            kernel.cost_per_header_byte = cost_model.parse_per_header_byte
            kernel.cost_per_wire_byte = cost_model.wire_per_packet_byte
            kernel.total_fn_cycles = program.cum_sequential[-1]
            kernel.cum_seq = _np.asarray(
                program.cum_sequential, dtype=_np.int64
            )
            kernel.cum_par = _np.asarray(
                program.cum_parallel, dtype=_np.int64
            )
        else:
            kernel.cost_base = kernel.cost_per_header_byte = 0
            kernel.cost_per_wire_byte = 0.0
            kernel.total_fn_cycles = 0
            kernel.cum_seq = kernel.cum_par = None
        return kernel
