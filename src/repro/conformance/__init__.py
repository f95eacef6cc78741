"""Differential conformance harness (the executable spec for Algorithm 1).

The paper's claim is behavioral: five different protocols, realized as
FN compositions, must forward identically however the router executes
them.  This package proves the repo's executors agree:

- :mod:`repro.conformance.reference` -- the deliberately naive
  Algorithm 1 interpreter every optimization is measured against;
- :mod:`repro.conformance.executors` -- the normalized executor matrix,
  declared as axes (front x input kind x host x degrade policy, plus
  the PISA pipeline): :data:`DEFAULT_EXECUTORS` and the full product
  :data:`ALL_CELLS`;
- :mod:`repro.conformance.differ` -- per-packet + state diffing into a
  structured :class:`DivergenceReport`;
- :mod:`repro.conformance.fuzzer` -- seeded wire fuzzing with automatic
  shrinking of diverging inputs;
- :mod:`repro.conformance.corpus` -- the golden wire-vector corpus
  (record/replay; ``tests/conformance/corpus/``).

CLI: ``repro conformance [--fuzz N] [--seed S] [--corpus DIR] [--json]``.
"""

from repro.conformance.corpus import (
    Vector,
    build_golden_corpus,
    load_corpus,
    replay_corpus,
    replay_vector,
    save_corpus,
)
from repro.conformance.differ import (
    Divergence,
    DivergenceReport,
    degraded_expectation,
    diff_case,
)
from repro.conformance.executors import (
    ALL_CELLS,
    DEFAULT_EXECUTORS,
    EXECUTOR_NAMES,
    Cell,
    ExecutionResult,
    ExecutorSpec,
    WireOutcome,
    executors_by_name,
    outcome_from_result,
    run_reference,
    state_fingerprint,
    wire_outcomes,
)
from repro.conformance.fuzzer import fuzz_wires, run_fuzz, shrink_case
from repro.conformance.reference import ReferenceInterpreter
from repro.conformance.scenarios import (
    ALL_SCENARIOS,
    SCENARIOS,
    Scenario,
    scenario_registry,
    scenario_state,
    scenario_wires,
)

__all__ = [
    "ALL_CELLS",
    "ALL_SCENARIOS",
    "Cell",
    "DEFAULT_EXECUTORS",
    "Divergence",
    "DivergenceReport",
    "EXECUTOR_NAMES",
    "ExecutionResult",
    "ExecutorSpec",
    "ReferenceInterpreter",
    "SCENARIOS",
    "Scenario",
    "Vector",
    "WireOutcome",
    "build_golden_corpus",
    "degraded_expectation",
    "diff_case",
    "executors_by_name",
    "fuzz_wires",
    "load_corpus",
    "outcome_from_result",
    "replay_corpus",
    "replay_vector",
    "run_fuzz",
    "run_reference",
    "save_corpus",
    "scenario_registry",
    "scenario_state",
    "scenario_wires",
    "shrink_case",
    "state_fingerprint",
    "wire_outcomes",
]
