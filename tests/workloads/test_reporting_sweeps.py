"""Tests for the table renderer, report artifacts, and sweep driver."""

import json

import pytest

from repro.netsim.stats import TraceRecorder
from repro.workloads.reporting import (
    format_table,
    print_table,
    write_report_json,
)
from repro.workloads.sweeps import mean, run_sweep, time_callable


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["longer-name", 22]]
        )
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert len(lines) == 4
        # all rows padded to equal column starts
        assert lines[2].index("1") == lines[3].index("2")

    def test_handles_non_string_cells(self):
        text = format_table(["x"], [[3.5], [None]])
        assert "3.5" in text and "None" in text

    def test_empty_rows(self):
        text = format_table(["only", "headers"], [])
        assert "only" in text and len(text.splitlines()) == 2


class TestPrintTable:
    def test_writes_artifact_when_env_set(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_REPORT_DIR", str(tmp_path))
        print_table("My Table: x/y", ["a"], [["b"]])
        captured = capsys.readouterr()
        assert "My Table" in captured.out
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == ["my-table-x-y.json", "my-table-x-y.txt"]
        assert "My Table" in (tmp_path / "my-table-x-y.txt").read_text()

    def test_json_artifact_is_machine_readable(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_REPORT_DIR", str(tmp_path))
        print_table("T numbers", ["name", "value"], [["x", 1], ["y", 2.5]])
        capsys.readouterr()
        payload = json.loads((tmp_path / "t-numbers.json").read_text())
        assert payload["title"] == "T numbers"
        assert payload["headers"] == ["name", "value"]
        assert payload["rows"] == [["x", "1"], ["y", "2.5"]]

    def test_write_report_json_direct(self, tmp_path):
        path = write_report_json(
            "Direct", ["h"], [[42]], report_dir=str(tmp_path)
        )
        assert path is not None and path.endswith("direct.json")
        assert json.loads(open(path).read())["rows"] == [["42"]]

    def test_write_report_json_noop_without_dir(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPORT_DIR", raising=False)
        assert write_report_json("T", ["h"], [["r"]]) is None

    def test_no_artifact_without_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_REPORT_DIR", raising=False)
        print_table("T", ["a"], [["b"]])
        assert not list(tmp_path.iterdir())


class TestRunSweep:
    def test_grid_order_first_param_slowest(self):
        points = run_sweep(
            {"a": [1, 2], "b": ["x", "y"]},
            lambda a, b: {"pair": (a, b)},
        )
        assert [p.outputs["pair"] for p in points] == [
            (1, "x"), (1, "y"), (2, "x"), (2, "y"),
        ]

    def test_params_recorded_independently(self):
        points = run_sweep({"n": [1, 2, 3]}, lambda n: {"sq": n * n})
        assert [p.params["n"] for p in points] == [1, 2, 3]
        assert [p.outputs["sq"] for p in points] == [1, 4, 9]

    def test_empty_grid_runs_once(self):
        points = run_sweep({}, lambda: {"ok": True})
        assert len(points) == 1 and points[0].outputs["ok"]


class TestHelpers:
    def test_time_callable_positive(self):
        assert time_callable(lambda: sum(range(100)), repeats=2) >= 0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ZeroDivisionError):
            mean([])


class TestTraceRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(0.1, "a", "send")
        trace.record(0.2, "b", "drop", "reason")
        trace.record(0.3, "a", "drop")
        assert len(trace.of_kind("drop")) == 2
        assert len(trace.at_node("a")) == 2
        assert trace.of_kind("drop")[0].detail == "reason"

    def test_disabled_records_nothing(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0.1, "a", "send")
        assert not trace.events
