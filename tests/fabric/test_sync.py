"""Conservative synchronization mechanics (repro.fabric.sync)."""

import math

import pytest

from repro.errors import FabricError
from repro.fabric.messages import KIND_DIP, Advance, Deliver, Inject
from repro.fabric.runner import ChannelSpec, FabricRun, duplex
from repro.fabric.sync import Component, payload_digest


class Recorder(Component):
    """Minimal concrete component: records every processed frame."""

    def __init__(self, component_id):
        super().__init__(component_id)
        self.seen = []

    def on_frame(self, time, port, kind, data, size):
        self.seen.append((time, port, data))


def deliver(src, dst, port, time, data=b"x", seq=1):
    return Deliver(time, src, dst, port, KIND_DIP, data, len(data), seq)


class TestHorizon:
    def test_no_inputs_means_infinite_horizon(self):
        assert Recorder("c").horizon() == math.inf

    def test_horizon_is_min_over_input_promises(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.add_input("b", 1, rank=1)
        assert c.horizon() == 0.0
        c.accept(Advance("a", "c", 0, 5.0))
        assert c.horizon() == 0.0
        c.accept(Advance("b", "c", 1, 3.0))
        assert c.horizon() == 3.0

    def test_advance_never_lowers_a_promise(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.accept(Advance("a", "c", 0, 5.0))
        c.accept(Advance("a", "c", 0, 2.0))  # stale: ignored
        assert c.horizon() == 5.0

    def test_inf_closes_a_channel(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.accept(Advance("a", "c", 0, math.inf))
        assert c.horizon() == math.inf

    def test_deliver_does_not_raise_the_horizon(self):
        # A Deliver's timestamp is NOT a promise: service-charging
        # components legally emit out of timestamp order within their
        # promised bound.
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.accept(deliver("a", "c", 0, 7.0))
        assert c.horizon() == 0.0


class TestStep:
    def test_processes_strictly_below_horizon(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.accept(deliver("a", "c", 0, 1.0, seq=1))
        c.accept(deliver("a", "c", 0, 3.0, seq=2))
        c.accept(Advance("a", "c", 0, 3.0))
        assert c.step() == 1  # the event AT the horizon must wait
        assert [t for t, _, _ in c.seen] == [1.0]
        c.accept(Advance("a", "c", 0, 10.0))
        assert c.step() == 1
        assert c.clock == 3.0

    def test_merge_order_is_time_rank_seq(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.add_input("b", 1, rank=1)
        # Arrival order scrambled on purpose: the heap key, all
        # sender-decided, fixes processing order.
        c.accept(deliver("b", "c", 1, 2.0, data=b"b2", seq=1))
        c.accept(deliver("a", "c", 0, 2.0, data=b"a1", seq=1))
        c.accept(deliver("a", "c", 0, 1.0, data=b"a0", seq=2))
        c.accept(Advance("a", "c", 0, 99.0))
        c.accept(Advance("b", "c", 1, 99.0))
        c.step()
        assert [d for _, _, d in c.seen] == [b"a0", b"a1", b"b2"]

    def test_unwired_deliver_is_an_error(self):
        c = Recorder("c")
        with pytest.raises(FabricError, match="unwired"):
            c.accept(deliver("ghost", "c", 0, 1.0))

    def test_unwired_advance_is_an_error(self):
        c = Recorder("c")
        with pytest.raises(FabricError, match="unwired"):
            c.accept(Advance("ghost", "c", 0, 1.0))

    def test_inject_needs_no_channel(self):
        c = Recorder("c")
        c.accept(Inject(1.0, "c", 0, KIND_DIP, b"seed", 4))
        assert c.pending() == 1
        c.step()  # horizon inf: processes immediately
        assert c.seen == [(1.0, 0, b"seed")]


class TestEmitAndPromises:
    def test_emit_stamps_arrival_time(self):
        c = Recorder("c")
        c.add_output(0, "d", 0, latency=0.5, rank=0)
        assert c.emit(1.0, 0, KIND_DIP, b"x", 1)
        [msg] = c.take_outbox()
        assert msg.time == 1.5 and msg.dst == "d" and msg.seq == 1

    def test_emit_without_channel_counts_tx_error(self):
        c = Recorder("c")
        assert not c.emit(1.0, 9, KIND_DIP, b"x", 1)
        assert c.tx_errors == 1

    def test_emit_falls_back_to_default_out(self):
        c = Recorder("c")
        c.add_output(0, "d", 0, latency=0.5, rank=0)
        c.default_out = 0
        assert c.emit(1.0, 42, KIND_DIP, b"x", 1)
        [msg] = c.take_outbox()
        assert msg.port == 0

    def test_promises_are_monotone_and_deduplicated(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.add_output(0, "d", 0, latency=1.0, rank=1)
        c.accept(Advance("a", "c", 0, 2.0))
        [first] = c.promises()
        assert first.time == 3.0
        assert c.promises() == []  # nothing changed: no repeat
        c.accept(Advance("a", "c", 0, 5.0))
        [second] = c.promises()
        assert second.time == 6.0

    def test_closed_source_promises_infinity(self):
        c = Recorder("c")
        c.add_output(0, "d", 0, latency=0.0, rank=0)
        c._source_closed = True
        [promise] = c.promises()
        assert promise.time == math.inf

    def test_pending_event_caps_the_promise(self):
        c = Recorder("c")
        c.add_input("a", 0, rank=0)
        c.add_output(0, "d", 0, latency=1.0, rank=1)
        c.accept(Advance("a", "c", 0, 100.0))
        c.accept(deliver("a", "c", 0, 4.0))
        # min(horizon=100, next_event=4) + 1
        assert [p.time for p in c.promises()] == [5.0]

    def test_negative_latency_rejected(self):
        c = Recorder("c")
        with pytest.raises(FabricError, match="negative"):
            c.add_output(0, "d", 0, latency=-1.0, rank=0)

    def test_double_wired_port_rejected(self):
        c = Recorder("c")
        c.add_output(0, "d", 0, latency=0.0, rank=0)
        with pytest.raises(FabricError, match="wired twice"):
            c.add_output(0, "e", 0, latency=0.0, rank=1)


class TestPayloadDigest:
    def test_bytes_and_objects(self):
        assert payload_digest(b"abc") == payload_digest(bytearray(b"abc"))
        assert payload_digest(b"abc") != payload_digest(b"abd")
        assert payload_digest(("tuple", 1)) == payload_digest(("tuple", 1))


class _Echo(Component):
    """Echoes every frame back out of port 0."""

    def on_frame(self, time, port, kind, data, size):
        if data != b"stop":
            self.emit(time, 0, kind, data, size)


class _Dropper(Component):
    def on_frame(self, time, port, kind, data, size):
        pass


class TestRunnerTermination:
    def test_zero_latency_acyclic_terminates(self):
        # A drained source closes its channels, so a zero-latency
        # pipeline still reaches horizon = inf and terminates.
        from repro.fabric.components import HostComponent

        injections = [
            Inject(0.0, "src", 0, KIND_DIP, bytes([i]), 1, seq=i)
            for i in range(5)
        ]
        run = FabricRun(
            {
                "src": lambda: HostComponent("src", injections),
                "snk": lambda: _Dropper("snk"),
            },
            [ChannelSpec("src", 0, "snk", 0, 0.0)],
        )
        report = run.run()
        assert run.components["snk"].processed == 5
        assert report.counters["delivers"] == 5

    def test_zero_lookahead_cycle_stalls_with_diagnosis(self):
        def make_echo(name):
            return lambda: _Echo(name)

        run = FabricRun(
            {"a": make_echo("a"), "b": make_echo("b")},
            duplex("a", 0, "b", 0, 0.0),
            injections=[Inject(0.0, "a", 0, KIND_DIP, b"ping", 4)],
        )
        with pytest.raises(FabricError, match="zero-lookahead cycle"):
            run.run()

    def test_positive_lookahead_cycle_terminates(self):
        # Same ring with latency > 0: each hop advances virtual time,
        # and the echo stops on the sentinel payload.
        class _Counted(_Echo):
            def on_frame(self, time, port, kind, data, size):
                if self.processed_frames < 10:
                    self.emit(time, 0, kind, data, size)

            def __init__(self, name):
                super().__init__(name)
                self.processed_frames = 0

            def step(self):
                out = super().step()
                self.processed_frames = self.processed
                return out

        run = FabricRun(
            {"a": lambda: _Counted("a"), "b": lambda: _Counted("b")},
            duplex("a", 0, "b", 0, 0.25),
            injections=[Inject(0.0, "a", 0, KIND_DIP, b"ping", 4)],
        )
        report = run.run()
        assert report.counters["delivers"] >= 10

    def test_unknown_channel_endpoint_rejected(self):
        with pytest.raises(FabricError, match="unknown components"):
            FabricRun(
                {"a": lambda: Recorder("a")},
                [ChannelSpec("a", 0, "ghost", 0, 1.0)],
            )

    def test_empty_fabric_rejected(self):
        with pytest.raises(FabricError, match="at least one"):
            FabricRun({}, [])

    def test_processes_below_one_rejected(self):
        with pytest.raises(FabricError, match="processes"):
            FabricRun({"a": lambda: Recorder("a")}, [], processes=0)

    def test_scheduler_seed_with_processes_rejected(self):
        # The star never shuffles: a seed there would be silently ignored.
        with pytest.raises(FabricError, match="in-process scheduler only"):
            FabricRun(
                {"a": lambda: Recorder("a")}, [], processes=2,
                scheduler_seed=7,
            )
