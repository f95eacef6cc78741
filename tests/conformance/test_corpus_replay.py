"""Tier-1 golden-corpus replay: every vector through every executor.

The checked-in corpus under ``tests/conformance/corpus/`` is the
repo's behavioral contract: each vector replays against the full
executor matrix (:data:`repro.conformance.executors.DEFAULT_EXECUTORS`)
and must produce zero divergences from the reference interpreter.
Regression vectors (shrunk fuzzer finds, kept forever) ride in the
``regressions`` group.  The slow tier replays the whole corpus through
every supported cell (:data:`repro.conformance.executors.ALL_CELLS`).
"""

import pytest

from repro.conformance import (
    ALL_CELLS,
    ALL_SCENARIOS,
    EXECUTOR_NAMES,
    SCENARIOS,
    load_corpus,
    replay_corpus,
    replay_vector,
)
from repro.conformance.corpus import REGRESSION_GROUP

from tests.conformance.conftest import CORPUS_DIR

VECTORS = load_corpus(CORPUS_DIR)


def test_corpus_is_checked_in_and_large_enough():
    assert len(VECTORS) >= 50


def test_corpus_covers_every_composition_and_case_class():
    scenarios = {vector.scenario for vector in VECTORS}
    assert set(SCENARIOS) <= scenarios
    names = {vector.name for vector in VECTORS}
    for scenario in ALL_SCENARIOS:
        assert f"{scenario}-truncated" in names
        assert f"{scenario}-limit-exceeded" in names
        assert f"{scenario}-fieldrange-quarantine" in names
    assert "ip-host-tagged" in names  # tag-bit host operations
    assert "ndn-pit-lifecycle" in names  # stateful sequences
    assert "opt-parallel-flag" in names  # modular parallelism
    assert "opt-hetero-unsupported" in names  # degrade-policy turf


def test_regression_vectors_are_preserved():
    regressions = [v for v in VECTORS if v.group == REGRESSION_GROUP]
    assert regressions, "regressions.json missing from the corpus"
    names = {v.name for v in regressions}
    # The first fuzzer find: the PISA pipeline checked the hop limit
    # before validating field ranges (see dip_pipeline.py).
    assert "pipeline-fieldrange-before-hoplimit" in names


def describe(report):
    return "\n".join(
        f"{d.vector} {d.executor} packet {d.index} [{d.aspect}]: "
        f"expected {d.expected}, got {d.got}"
        for d in report.divergences
    )


@pytest.mark.parametrize(
    "vector", VECTORS, ids=lambda v: f"{v.group}/{v.name}"
)
def test_vector_replays_clean_through_every_executor(vector, cost_model):
    report = replay_vector(vector, cost_model=cost_model)
    assert list(report.executors) == list(EXECUTOR_NAMES)
    assert report.comparisons > 0
    assert report.ok, describe(report)


@pytest.mark.slow
def test_corpus_replays_clean_through_every_cell(cost_model):
    report = replay_corpus(VECTORS, ALL_CELLS, cost_model)
    assert len(report.executors) == len(ALL_CELLS)
    assert report.ok, describe(report)
