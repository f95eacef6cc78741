"""The netsim ``TraceRecorder`` is a telemetry ``Tracer``.

Simulator events are zero-length spans, so the legacy query views
(``events``/``of_kind``) and the engine's JSONL trace
exporter both work on one recording.
"""

from repro.netsim.stats import TraceRecorder
from repro.telemetry.tracing import Tracer


class TestTraceRecorderIsTracer:
    def test_is_a_tracer_with_legacy_views(self):
        recorder = TraceRecorder()
        assert isinstance(recorder, Tracer)
        recorder.record(1.0, "r1", "forward", detail="port 2")
        recorder.record(2.0, "r2", "drop")
        assert len(recorder.spans) == 2
        events = recorder.events
        assert events[0].node_id == "r1"
        assert events[0].event == "forward"
        assert events[0].detail == "port 2"
        assert [e.event for e in recorder.of_kind("drop")] == ["drop"]

    def test_disabled_recorder_drops_events(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record(1.0, "r1", "forward")
        assert recorder.events == ()

    def test_sim_events_export_as_spans(self, tmp_path):
        from repro.telemetry.export import read_trace_jsonl, write_trace_jsonl

        recorder = TraceRecorder()
        recorder.record(1.5, "r1", "forward", detail="p")
        path = tmp_path / "sim.jsonl"
        write_trace_jsonl(recorder.spans, str(path))
        (span,) = read_trace_jsonl(str(path))
        assert span.name == "forward"
        assert span.start == 1.5
        assert span.duration == 0.0
        assert span.attrs == {"node": "r1", "detail": "p"}
