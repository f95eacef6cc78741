"""Outcome diffing and the structured :class:`DivergenceReport`.

:func:`diff_case` is the heart of the harness: run one wire list
through the reference interpreter and every executor in the matrix,
compare per-packet outcomes (plus notes, cycles and the post-run state
fingerprint where the executor's spec says they are comparable), and
record every disagreement as a :class:`Divergence`.

Comparison domain rules (DESIGN.md 3.10):

- a ``domain_limited`` executor (the PISA pipeline) is not compared on
  a packet it returns ``None`` for (its unroll budget) or one the
  reference dropped for a processing-limit violation; once it skips a
  packet its state is excluded too (the skipped walk never happened);
- anywhere else a ``None`` outcome is a lost packet: an ``outcome``
  divergence;
- executors running under a degrade policy are compared against the
  *transformed* reference expectation (:func:`degraded_expectation`),
  mirroring ``ShardWorker._degraded_outcome`` exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.conformance.executors import (
    DEFAULT_EXECUTORS,
    ExecutorSpec,
    WireOutcome,
    run_reference,
)
from repro.conformance.scenarios import Scenario

#: ProcessResult.failure classes a degrade policy rewrites
#: (workers._DEGRADABLE); exception-class failures stay quarantined.
DEGRADABLE_FAILURES = frozenset({"limit", "state", "unsupported"})


def degraded_expectation(
    wire: bytes,
    reference: WireOutcome,
    policy: str,
    default_port: Optional[int],
) -> WireOutcome:
    """What the engine's degrade policy must turn this verdict into.

    Mirrors :meth:`repro.engine.workers.ShardWorker._degraded_outcome`:
    ``pass-to-host`` delivers, ``best-effort-ip`` forwards out the
    default port with only the hop-limit byte edited, ``drop`` (and
    ``best-effort-ip`` without a default port) discards.
    """
    if reference.reason not in DEGRADABLE_FAILURES:
        return reference
    if policy == "pass-to-host":
        return WireOutcome("deliver", (), None, "degraded")
    if policy == "best-effort-ip" and default_port is not None:
        data = bytes(wire)
        rewritten = data[:3] + bytes(((data[3] - 1) & 0xFF,)) + data[4:]
        return WireOutcome("forward", (default_port,), rewritten, "degraded")
    return WireOutcome("drop", (), None, "degraded")


# ----------------------------------------------------------------------
# report structure
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """One executor disagreeing with the reference on one packet."""

    scenario: str
    executor: str
    index: int  # packet index in the case; -1 for state divergences
    aspect: str  # outcome | reason | notes | cycles | state
    expected: str
    got: str
    wire: Optional[str] = None  # hex of the diverging packet
    vector: Optional[str] = None  # corpus vector name, when replaying

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "executor": self.executor,
            "index": self.index,
            "aspect": self.aspect,
            "expected": self.expected,
            "got": self.got,
            "wire": self.wire,
            "vector": self.vector,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Divergence":
        return cls(**data)


@dataclass
class DivergenceReport:
    """Aggregate result of a conformance run (fuzz or corpus replay)."""

    packets: int = 0
    cases: int = 0
    comparisons: int = 0
    scenarios: Dict[str, int] = field(default_factory=dict)
    executors: List[str] = field(default_factory=list)
    divergences: List[Divergence] = field(default_factory=list)
    #: Shrunk minimal repros, one per diverging (scenario, executor).
    repros: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def merge(self, other: "DivergenceReport") -> None:
        self.packets += other.packets
        self.cases += other.cases
        self.comparisons += other.comparisons
        for name, count in other.scenarios.items():
            self.scenarios[name] = self.scenarios.get(name, 0) + count
        for name in other.executors:
            if name not in self.executors:
                self.executors.append(name)
        self.divergences.extend(other.divergences)
        self.repros.extend(other.repros)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "packets": self.packets,
            "cases": self.cases,
            "comparisons": self.comparisons,
            "scenarios": dict(sorted(self.scenarios.items())),
            "executors": list(self.executors),
            "divergences": [d.to_dict() for d in self.divergences],
            "repros": list(self.repros),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "DivergenceReport":
        return cls(
            packets=data.get("packets", 0),
            cases=data.get("cases", 0),
            comparisons=data.get("comparisons", 0),
            scenarios=dict(data.get("scenarios", {})),
            executors=list(data.get("executors", [])),
            divergences=[
                Divergence.from_dict(d) for d in data.get("divergences", [])
            ],
            repros=list(data.get("repros", [])),
        )

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCES"
        per_scenario = ", ".join(
            f"{name}:{count}" for name, count in sorted(self.scenarios.items())
        )
        return (
            f"conformance: {status} -- {self.packets} packets, "
            f"{self.cases} cases, {self.comparisons} comparisons, "
            f"{len(self.executors)} executors [{per_scenario}]"
        )


# ----------------------------------------------------------------------
# the differential run
# ----------------------------------------------------------------------
def _fmt(value: object, limit: int = 300) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _outcome_differs(
    expected: WireOutcome, got: WireOutcome, compare_reason: bool
) -> bool:
    if not compare_reason:
        expected, got = expected[:3], got[:3]  # decision, ports, packet
    return expected != got


def diff_case(
    scenario: Scenario,
    wires: Sequence[bytes],
    executors: Optional[Sequence[ExecutorSpec]] = None,
    cost_model: Optional[object] = None,
    vector: Optional[str] = None,
) -> DivergenceReport:
    """Run one case through reference + matrix; report every difference."""
    specs: Tuple[ExecutorSpec, ...] = tuple(
        executors if executors is not None else DEFAULT_EXECUTORS
    )
    wires = [bytes(w) for w in wires]
    report = DivergenceReport(
        packets=len(wires),
        cases=1,
        scenarios={scenario.name: len(wires)},
        executors=[spec.name for spec in specs],
    )
    reference = run_reference(scenario, wires, cost_model)
    default_port = scenario.state().default_port

    def record(executor, index, aspect, expected, got, wire=None):
        report.divergences.append(
            Divergence(
                scenario=scenario.name,
                executor=executor,
                index=index,
                aspect=aspect,
                expected=_fmt(expected),
                got=_fmt(got),
                wire=wire.hex() if wire is not None else None,
                vector=vector,
            )
        )

    for spec in specs:
        result = spec.run(scenario, wires, cost_model)
        if len(result.outcomes) != len(wires):
            record(
                spec.name, -1, "outcome",
                f"{len(wires)} outcomes", f"{len(result.outcomes)} outcomes",
            )
            continue
        skipped = False
        for index, wire in enumerate(wires):
            expected = reference.outcomes[index]
            got = result.outcomes[index]
            if spec.domain_limited and (
                got is None or expected.reason == "limit"
            ):
                skipped = True
                continue
            if spec.degrade is not None:
                expected = degraded_expectation(
                    wire, expected, spec.degrade, default_port
                )
            report.comparisons += 1
            if got is None or _outcome_differs(
                expected, got, spec.compare_reason
            ):
                record(spec.name, index, "outcome", expected, got, wire)
                continue
            if (
                spec.compare_notes
                and result.notes is not None
                and result.notes[index] != reference.notes[index]
            ):
                record(
                    spec.name, index, "notes",
                    reference.notes[index], result.notes[index], wire,
                )
            if (
                spec.compare_cycles
                and cost_model is not None
                and result.cycles is not None
                and result.cycles[index] is not None
                and reference.cycles[index] is not None
                and result.cycles[index] != reference.cycles[index]
            ):
                record(
                    spec.name, index, "cycles",
                    reference.cycles[index], result.cycles[index], wire,
                )
        if (
            spec.compare_state
            and not skipped
            and result.state is not None
            and result.state != reference.state
        ):
            record(spec.name, -1, "state", reference.state, result.state)
    return report
