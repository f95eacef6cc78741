"""Tests for the table renderer and the netsim trace recorder."""

from repro.netsim.stats import TraceRecorder
from repro.workloads.reporting import format_table


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


class TestTraceRecorder:
    def test_record_and_filter(self):
        trace = TraceRecorder()
        trace.record(0.1, "a", "send")
        trace.record(0.2, "b", "drop", "reason")
        trace.record(0.3, "a", "drop")
        assert len(trace.of_kind("drop")) == 2
        assert trace.of_kind("drop")[0].detail == "reason"

    def test_disabled_records_nothing(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0.1, "a", "send")
        assert not trace.events
