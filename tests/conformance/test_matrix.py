"""The executor matrix is declared axes; its cells report, never abort.

Cells are derived from (front, input, host, degrade) tuples, so these
tests pin the declaration rather than a list of names: every axis value
reaches tier-1, every configuration the matrix has ever carried is
still a default cell, and the comparison rules follow from the axes.
The serve cell's verdict is read back from its reply codec, so codec
drift and shed packets show up as divergences in the report.
"""

from repro.conformance import (
    ALL_CELLS,
    DEFAULT_EXECUTORS,
    Scenario,
    diff_case,
    executors_by_name,
)
from repro.conformance.executors import DEGRADES, FRONTS, HOSTS, INPUTS

#: The hand-named executors the matrix carried before it became axes.
PRE_AXES_CONFIGURATIONS = {
    "process": ("process", "raw", "bare", "none"),
    "process-batch": ("process-batch", "raw", "bare", "none"),
    "flow-cache": ("flow-cache", "raw", "bare", "none"),
    "columnar": ("columnar", "raw", "bare", "none"),
    "engine-serial": ("process-batch", "raw", "engine-serial", "none"),
    "engine-serial-sharded": (
        "process-batch", "raw", "engine-serial-sharded", "none",
    ),
    "engine-serial-flowcache": ("flow-cache", "raw", "engine-serial", "none"),
    "engine-process": ("process-batch", "raw", "engine-process", "none"),
    "engine-degrade-drop": ("process-batch", "raw", "engine-serial", "drop"),
    "engine-degrade-host": (
        "process-batch", "raw", "engine-serial", "pass-to-host",
    ),
    "engine-degrade-ip": (
        "process-batch", "raw", "engine-serial", "best-effort-ip",
    ),
    "dataplane": ("pisa", "raw", "dataplane", "none"),
    "serve": ("process-batch", "raw", "serve", "none"),
    "fabric": ("process-batch", "raw", "fabric", "none"),
}

DEFAULT_CELLS = {spec.cell for spec in DEFAULT_EXECUTORS}


def test_every_axis_value_reaches_the_default_matrix():
    axes = zip(*DEFAULT_CELLS)
    for values, used in zip((FRONTS, INPUTS, tuple(HOSTS), DEGRADES), axes):
        assert set(values) <= set(used)


def test_every_pre_axes_configuration_is_a_default_cell():
    assert set(PRE_AXES_CONFIGURATIONS.values()) <= DEFAULT_CELLS
    # Plus one bare and one process-engine cell of the other input kinds.
    extra = DEFAULT_CELLS - set(PRE_AXES_CONFIGURATIONS.values())
    assert {cell.host for cell in extra} == {"bare", "engine-process"}
    assert {cell.input for cell in extra} == {"packets", "interleaved"}


def test_all_cells_is_the_supported_product():
    assert len(ALL_CELLS) >= 120
    assert DEFAULT_CELLS <= {spec.cell for spec in ALL_CELLS}
    names = [spec.name for spec in ALL_CELLS]
    assert len(set(names)) == len(names)
    for spec in ALL_CELLS:
        host = HOSTS[spec.cell.host]
        assert spec.cell.front in host.fronts
        assert spec.cell.input in host.inputs
        assert spec.cell.degrade in host.degrades
    assert executors_by_name(names) == ALL_CELLS


def test_comparison_rules_follow_from_the_axes():
    for spec in ALL_CELLS:
        cell = spec.cell
        bare = cell.host == "bare"
        assert spec.compare_notes == spec.compare_cycles == bare
        assert spec.compare_state == HOSTS[cell.host].one_shard
        assert spec.compare_reason == (cell.host != "dataplane")
        assert spec.domain_limited == (cell.host == "dataplane")
        assert spec.degrade == (
            None if cell.degrade == "none" else cell.degrade
        )
    assert not HOSTS["engine-serial-sharded"].one_shard
    assert not HOSTS["engine-process"].one_shard


def serve_case():
    scenario = Scenario("ip")
    wires = scenario.wires(8, stream="serve-cell")
    return diff_case(scenario, wires, executors_by_name(["serve"]))


def test_serve_reply_codec_drift_is_a_divergence(monkeypatch):
    import repro.serve.core as serve_core

    encode = serve_core.encode_reply
    monkeypatch.setattr(
        serve_core,
        "encode_reply",
        lambda status, ports=(), packet=None: encode(status, (), packet),
    )
    report = serve_case()
    assert not report.ok
    assert {d.executor for d in report.divergences} == {"serve"}
    assert {d.aspect for d in report.divergences} == {"outcome"}


def test_serve_shed_packet_is_a_missing_outcome(monkeypatch):
    from repro.serve.core import ServeCore

    submit = ServeCore.submit
    monkeypatch.setattr(
        ServeCore,
        "submit",
        lambda self, data, addr: addr != 2 and submit(self, data, addr),
    )
    report = serve_case()
    assert [(d.executor, d.index, d.got) for d in report.divergences] == [
        ("serve", 2, "None")
    ]
