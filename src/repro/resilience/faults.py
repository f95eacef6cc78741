"""Deterministic fault injection for chaos-testing the engine.

The supervisor work in :mod:`repro.engine` is only trustworthy if its
failure paths are exercised on purpose, so faults here are *scripted*,
not sprayed: a :class:`FaultPlan` is a list of :class:`Fault` records
("crash shard 1 at batch 3", "corrupt the wire bytes of shard 0's
second batch"), and a :class:`FaultInjector` replays the plan
deterministically -- probabilistic faults draw from a
``random.Random`` seeded by ``(plan.seed, shard)``, so the same plan
against the same input always injects the same faults.

Plans are frozen, picklable (they cross the fork into process-backend
workers) and JSON round-trippable (the ``engine`` CLI loads them with
``--fault-plan plan.json``).

Batch matching uses the *supervisor's* batch sequence numbers: the
parent assigns a monotonically increasing per-shard ``seq`` to every
batch it sends, including retries.  A retried batch therefore carries a
fresh seq and a ``batch=``-pinned fault fires exactly once, even
though a respawned process-backend worker rebuilds its injector from
scratch.  Unpinned faults (``batch=None``) match every batch of their
incarnation -- use ``times=`` to bound them (but note a respawned
process worker forgets its predecessor's ``times`` bookkeeping; pin
``batch=`` when exactly-once matters across restarts).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import EngineWorkerError, OperationError, SimulationError

# Fault kinds.  WORKER_KINDS are injected inside ShardWorker.run_batch
# (both backends); LINK_KINDS are injected by netsim Links.  The wire
# kinds appear in both sets: a corrupt byte is a corrupt byte whether a
# pipe or a cable flipped it.
CRASH = "worker-crash"          # worker dies before processing the batch
STALL = "ring-stall"            # worker sleeps before processing
DELAY = "delayed-reply"         # worker sleeps after processing
CORRUPT = "corrupt-wire"        # one packet's bytes are bit-flipped
TRUNCATE = "truncate-wire"      # one packet's bytes are cut short
OP_EXCEPTION = "op-exception"   # an operation module raises mid-walk
DROP_FRAME = "drop-frame"       # a link silently eats the frame

WORKER_KINDS = frozenset(
    {CRASH, STALL, DELAY, CORRUPT, TRUNCATE, OP_EXCEPTION}
)
LINK_KINDS = frozenset({STALL, DELAY, CORRUPT, TRUNCATE, DROP_FRAME})
FAULT_KINDS = WORKER_KINDS | LINK_KINDS


class InjectedWorkerCrash(EngineWorkerError):
    """A scripted worker crash (never escapes the supervisor)."""


class InjectedOperationError(OperationError):
    """A scripted operation-module failure (quarantines one packet)."""


@dataclass(frozen=True)
class Fault:
    """One scripted fault.

    Parameters
    ----------
    kind:
        One of the module-level kind constants.
    shard:
        Target shard (or link) index; ``None`` matches every shard.
    batch:
        Supervisor batch seq (or link transmit seq) to fire at;
        ``None`` matches every batch.
    packet:
        Index *within the batch* for per-packet kinds (wire corruption,
        op exceptions); clamped to the batch by the injector's caller.
    delay:
        Sleep seconds for ``ring-stall`` / ``delayed-reply``.
    times:
        Firing budget per injector incarnation; 0 means unlimited.
    probability:
        Chance of firing when matched (drawn from the injector's
        seeded rng); 1.0 fires always.
    """

    kind: str
    shard: Optional[int] = None
    batch: Optional[int] = None
    packet: int = 0
    delay: float = 0.0
    times: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r} "
                f"(want one of {sorted(FAULT_KINDS)})"
            )
        if self.delay < 0:
            raise SimulationError("fault delay must be >= 0")
        if self.times < 0:
            raise SimulationError("fault times must be >= 0 (0 = unlimited)")
        if not 0.0 < self.probability <= 1.0:
            raise SimulationError("fault probability must be in (0, 1]")
        if self.packet < 0:
            raise SimulationError("fault packet index must be >= 0")

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "shard": self.shard,
            "batch": self.batch,
            "packet": self.packet,
            "delay": self.delay,
            "times": self.times,
            "probability": self.probability,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Fault":
        return cls(
            kind=str(data["kind"]),
            shard=None if data.get("shard") is None else int(data["shard"]),
            batch=None if data.get("batch") is None else int(data["batch"]),
            packet=int(data.get("packet", 0)),
            delay=float(data.get("delay", 0.0)),
            times=int(data.get("times", 1)),
            probability=float(data.get("probability", 1.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded script of faults.

    Falsy when empty, so ``if plan:`` gates all injection machinery --
    the engine with no plan (the default) builds no injectors at all.
    """

    faults: Tuple[Fault, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def crash_scripted(self, shard: int) -> bool:
        """Does the plan script a crash that could hit ``shard``?

        The parent uses this to attribute a worker death to injection
        (a crashed child never reports its own injected-fault count).
        """
        return any(
            fault.kind == CRASH
            and (fault.shard is None or fault.shard == shard)
            for fault in self.faults
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "faults": [fault.to_dict() for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        return cls(
            faults=tuple(
                Fault.from_dict(item) for item in data.get("faults", [])
            ),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SimulationError(f"fault plan is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise SimulationError("fault plan JSON must be an object")
        return cls.from_dict(data)


class FaultInjector:
    """Replays a :class:`FaultPlan` for one shard (or link).

    One injector lives inside each :class:`~repro.engine.workers
    .ShardWorker` (``shard`` = shard id) or :class:`~repro.netsim.links
    .Link` (``shard`` = link index).  ``actions(seq)`` returns the
    faults firing for that batch/transmit, updating the per-fault
    ``times`` bookkeeping and the ``injected`` total.
    """

    def __init__(self, plan: FaultPlan, shard: Optional[int] = None) -> None:
        self.plan = plan
        self.shard = shard
        self.injected = 0
        self._fired: Dict[int, int] = {}
        # Deterministic per-(seed, shard) stream for probabilistic
        # faults; the mix keeps shard streams independent.
        self._rng = random.Random(
            plan.seed * 1_000_003 + (0 if shard is None else shard + 1)
        )

    def actions(
        self, seq: int, kinds: Optional[frozenset] = None
    ) -> List[Fault]:
        """Faults firing at batch ``seq``, in plan order."""
        firing: List[Fault] = []
        for index, fault in enumerate(self.plan.faults):
            if kinds is not None and fault.kind not in kinds:
                continue
            if fault.shard is not None and fault.shard != self.shard:
                continue
            if fault.batch is not None and fault.batch != seq:
                continue
            if fault.times and self._fired.get(index, 0) >= fault.times:
                continue
            if (
                fault.probability < 1.0
                and self._rng.random() >= fault.probability
            ):
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            self.injected += 1
            firing.append(fault)
        return firing


def corrupt_bytes(data: bytes, kind: str) -> bytes:
    """Deterministic wire damage for the two wire-fault kinds.

    ``truncate-wire`` halves the buffer; ``corrupt-wire`` flips the
    FN-count byte (offset 2), the smallest flip guaranteed to derail
    the decoder or the walk.  Both produce buffers the processor
    quarantines rather than crashes on.
    """
    if kind == TRUNCATE:
        return data[: len(data) // 2]
    if len(data) > 2:
        return data[:2] + bytes((data[2] ^ 0xFF,)) + data[3:]
    return b""
