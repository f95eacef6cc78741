"""Static validation of FN compositions.

DIP lets hosts compose arbitrary FN programs, and Section 2.4 spells
out why that needs guarding: "an adversary may strategically combine
FNs to launch attacks", and ill-formed programs waste router budget.
This linter checks a header *before* it is sent (hosts) or accepted
into an SLA (operators):

========  =====================================================
code      meaning
========  =====================================================
E-RANGE   a target field exceeds the FN locations region
E-TAG     an operation is carried with the wrong tag (e.g. F_ver
          as a router op would make routers do host work)
E-ORDER   a dependent FN precedes its producer (F_MAC/F_mark
          before F_parm, F_intent before F_DAG)
E-LEN     an FN's field length is illegal for its operation
W-KEY     unknown operation key (ignored by compliant routers)
W-POISON  F_FIB and F_PIT over the same field in one packet --
          the content-poisoning combination of Section 2.4
W-STAGES  more FNs than the pipeline's FN_Num parse unrolls
          (``MAX_STAGES``: the PISA pipeline refuses the packet)
I-PAR     the parallel flag is set but no two FNs can actually
          run concurrently
========  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.core.program import MAX_STAGES, fns_conflict


class Severity(Enum):
    """Diagnostic severity."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"


@dataclass(frozen=True)
class Diagnostic:
    """One linter finding."""

    severity: Severity
    code: str
    message: str
    fn_index: Optional[int] = None

    def __str__(self) -> str:
        where = f" (FN[{self.fn_index}])" if self.fn_index is not None else ""
        return f"{self.severity.value}: {self.code}{where}: {self.message}"


# Operations that must be host-tagged / router-tagged.
_HOST_ONLY = {OperationKey.VERIFY, OperationKey.EPIC_VERIFY}
# key -> producer key that must appear earlier in the program
_REQUIRES_EARLIER = {
    OperationKey.MAC: OperationKey.PARM,
    OperationKey.MARK: OperationKey.PARM,
    OperationKey.INTENT: OperationKey.DAG,
}
# key -> required field length in bits (None = any byte-aligned)
_FIXED_LENGTHS = {
    OperationKey.MATCH_32: 32,
    OperationKey.MATCH_128: 128,
    OperationKey.PARM: 128,
    OperationKey.MARK: 128,
    OperationKey.PASS: 256,
    OperationKey.TELEMETRY: 32,
    OperationKey.DPS: 32,
    OperationKey.CONG_MARK: 256,
    OperationKey.POLICE: 256,
}


def lint_program(header: DipHeader) -> List[Diagnostic]:
    """Lint an FN composition; returns diagnostics, worst first."""
    diagnostics: List[Diagnostic] = []
    total_bits = header.loc_len * 8

    seen_router_keys: List[Tuple[int, int]] = []  # (index, key)
    fib_fields: List[Tuple[int, FieldOperation]] = []
    pit_fields: List[Tuple[int, FieldOperation]] = []

    for index, fn in enumerate(header.fns):
        if fn.field_end > total_bits:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR, "E-RANGE",
                    f"field [{fn.field_loc}, {fn.field_end}) exceeds the "
                    f"{total_bits}-bit locations region",
                    index,
                )
            )
        try:
            key = OperationKey(fn.key)
        except ValueError:
            diagnostics.append(
                Diagnostic(
                    Severity.WARNING, "W-KEY",
                    f"unknown operation key {fn.key} (routers ignore it)",
                    index,
                )
            )
            continue

        if key in _HOST_ONLY and not fn.tag:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR, "E-TAG",
                    f"{key.name} is a destination operation and must carry "
                    f"the host tag",
                    index,
                )
            )

        expected = _FIXED_LENGTHS.get(key)
        if expected is not None and fn.field_len != expected:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR, "E-LEN",
                    f"{key.name} requires a {expected}-bit field, "
                    f"got {fn.field_len}",
                    index,
                )
            )

        producer = _REQUIRES_EARLIER.get(key)
        if (
            producer is not None
            and not fn.tag
            and producer not in [k for _, k in seen_router_keys]
        ):
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR, "E-ORDER",
                    f"{key.name} needs {OperationKey(producer).name} earlier "
                    f"in the program",
                    index,
                )
            )

        if not fn.tag:
            seen_router_keys.append((index, key))
            if key is OperationKey.FIB:
                fib_fields.append((index, fn))
            elif key is OperationKey.PIT:
                pit_fields.append((index, fn))

    # Section 2.4's poisoning combination.
    for fib_index, fib_fn in fib_fields:
        for pit_index, pit_fn in pit_fields:
            if fib_fn.overlaps(pit_fn) or (
                fib_fn.field_loc == pit_fn.field_loc
                and fib_fn.field_len == pit_fn.field_len
            ):
                diagnostics.append(
                    Diagnostic(
                        Severity.WARNING, "W-POISON",
                        "F_FIB and F_PIT over the same field in one packet "
                        "can poison content caches (enable F_pass)",
                        pit_index,
                    )
                )

    if len(header.fns) > MAX_STAGES:
        diagnostics.append(
            Diagnostic(
                Severity.WARNING, "W-STAGES",
                f"{len(header.fns)} FNs exceed the {MAX_STAGES} FN states "
                f"a pipeline's parse graph unrolls",
            )
        )

    router_fns = header.router_fns()
    if header.parallel and len(router_fns) > 1:
        any_independent = any(
            not fns_conflict(a, b)
            for i, a in enumerate(router_fns)
            for b in router_fns[i + 1 :]
        )
        if not any_independent:
            diagnostics.append(
                Diagnostic(
                    Severity.INFO, "I-PAR",
                    "parallel flag set but every FN pair conflicts; "
                    "execution stays sequential",
                )
            )

    order = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}
    diagnostics.sort(key=lambda d: (order[d.severity], d.fn_index or 0))
    return diagnostics
