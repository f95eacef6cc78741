"""Serve-side mitigation tests: gated admission, flood shedding,
extended conservation, refusal reply codes and the daemon wiring.

The flood scenarios drive ``ServeCore`` directly (transport-free,
explicit clocks); one daemon test checks refusal replies actually
reach the sender over UDP.
"""

import asyncio
import functools
import json

from repro.resilience import MitigationConfig
from repro.serve import (
    QUARANTINED_REPLY,
    RATE_LIMITED_REPLY,
    REFUSAL_REPLIES,
    SHED_REPLY,
    ServeConfig,
    ServeCore,
    decode_reply,
)
from repro.workloads.attack import (
    attack_state_factory,
    attack_wires,
    legit_wires,
    make_attack_blend,
)


def make_core(mitigation_config=None, **overrides):
    defaults = dict(
        shards=1,
        backend="serial",
        batch_max=16,
        max_inflight=32,
        ring_capacity=64,
        content_count=64,
    )
    defaults.update(overrides)
    return ServeCore(
        ServeConfig(**defaults),
        state_factory=functools.partial(attack_state_factory, seed=0),
        mitigation_config=mitigation_config,
    )


# ----------------------------------------------------------------------
# reply codes
# ----------------------------------------------------------------------
def test_refusal_replies_decode_to_their_status():
    assert decode_reply(SHED_REPLY) == ("shed", (), b"")
    assert decode_reply(RATE_LIMITED_REPLY) == ("rate-limited", (), b"")
    assert decode_reply(QUARANTINED_REPLY) == ("quarantined", (), b"")
    assert set(REFUSAL_REPLIES) == {"shed", "rate-limited", "quarantined"}


# ----------------------------------------------------------------------
# gated admission (ServeCore.submit_ex)
# ----------------------------------------------------------------------
def test_gate_refuses_before_the_queue():
    core = make_core(
        MitigationConfig(sample_every=1, breaker_window=0),
    )
    try:
        poison = attack_wires("poison", 0, 4, stream="serve-gate")
        statuses = [
            core.submit_ex(wire, ("peer", i))
            for i, wire in enumerate(poison)
        ]
        assert statuses == ["quarantined"] * 4
        # Refused datagrams never took a queue slot.
        assert core.pending() == 0
        summary = core.summary()
        assert summary["quarantined"] == 4
        assert summary["unaccounted"] == 0
        assert summary["mitigation"]["pass_failures"] == 4
    finally:
        core.close()


def test_ungated_core_reports_no_mitigation():
    core = make_core()
    try:
        assert core.gate is None
        assert core.submit_ex(legit_wires(0, 1)[0], "a") == "queued"
        summary = core.summary()
        assert summary["mitigation"] is None
        assert summary["rate_limited"] == 0
        assert summary["quarantined"] == 0
    finally:
        core.close()


def test_snapshot_metrics_includes_gate_and_refusal_counters():
    core = make_core(MitigationConfig(sample_every=1, breaker_window=0))
    try:
        for i, wire in enumerate(
            attack_wires("poison", 0, 3, stream="serve-metrics")
        ):
            core.submit_ex(wire, i)
        snapshot = core.snapshot_metrics()
        assert snapshot.counters["serve_quarantined_total"] == 3
        assert snapshot.counters["serve_rate_limited_total"] == 0
        assert snapshot.counters["mitigation_quarantined_total"] == 3
        assert snapshot.counters["mitigation_offered_total"] == 3
    finally:
        core.close()


# ----------------------------------------------------------------------
# flood: >90% attack fraction
# ----------------------------------------------------------------------
def run_flood(core, fraction=0.95, total=600, label_out=None):
    wires, labels = make_attack_blend(total, fraction, seed=0)
    statuses = []
    for i, (wire, label) in enumerate(zip(wires, labels)):
        statuses.append((label, core.submit_ex(wire, i)))
        # One flush per batch_max arrivals: the server's capacity is
        # a fraction of the offered flood, as in a real overload.
        if (i + 1) % (core.config.batch_max * 4) == 0:
            core.flush(now=0.0)
    core.drain(now=0.0)
    if label_out is not None:
        label_out.extend(statuses)
    return core.summary()


def test_flood_sheds_with_conservation_intact():
    core = make_core()
    try:
        statuses = []
        summary = run_flood(core, label_out=statuses)
        assert summary["shed"] > 0
        assert summary["pending"] == 0
        assert summary["unaccounted"] == 0
        assert (
            summary["offered"]
            == summary["processed"]
            + summary["dropped_backpressure"]
            + summary["dead_lettered"]
            + summary["shed"]
        )
        shed = [(lab, st) for lab, st in statuses if st == "shed"]
        # Unmitigated, the flood owns the queue: legit arrivals are
        # among the shed.
        assert any(lab == "legit" for lab, _ in shed)
    finally:
        core.close()


def test_mitigated_flood_refuses_attack_and_keeps_accounting():
    core = make_core(MitigationConfig(sample_every=1, breaker_window=0))
    try:
        statuses = []
        summary = run_flood(core, label_out=statuses)
        assert summary["quarantined"] > 0
        assert summary["unaccounted"] == 0
        assert (
            summary["offered"]
            == summary["processed"]
            + summary["dropped_backpressure"]
            + summary["dead_lettered"]
            + summary["shed"]
            + summary["rate_limited"]
            + summary["quarantined"]
        )
        # The gate only ever refuses attack packets here.
        for label, status in statuses:
            if status in ("rate-limited", "quarantined"):
                assert label != "legit"
        # Fewer legit sheds than the ungated run sees.
        legit_shed = sum(
            1 for lab, st in statuses if lab == "legit" and st == "shed"
        )
        ungated = make_core()
        try:
            ungated_statuses = []
            run_flood(ungated, label_out=ungated_statuses)
            ungated_legit_shed = sum(
                1
                for lab, st in ungated_statuses
                if lab == "legit" and st == "shed"
            )
        finally:
            ungated.close()
        assert legit_shed < ungated_legit_shed
    finally:
        core.close()


def test_breaker_trip_actuates_engine_degrade_through_flush():
    # Every limit-violating packet quarantines inside the engine walk;
    # the gate's window learns about them via observe_bad... but the
    # direct trigger here is gate-side quarantines from poison.
    config = MitigationConfig(
        sample_every=1,
        breaker_window=8,
        breaker_trip_rate=0.5,
        breaker_recover_rate=0.05,
        breaker_policy="pass-to-host",
    )
    core = make_core(config, batch_max=8)
    try:
        for i, wire in enumerate(
            attack_wires("poison", 0, 8, stream="serve-breaker")
        ):
            core.submit_ex(wire, i)
        assert core.gate.stats().breaker_tripped
        # Actuation happens on the engine thread, inside a flush that
        # has work (an all-refused batch never reaches the engine).
        core.submit_ex(legit_wires(0, 1, stream="serve-kick")[0], "k")
        core.flush(now=0.0)
        assert core.engine.degrade == "pass-to-host"
        for i, wire in enumerate(legit_wires(0, 8, stream="serve-rec")):
            core.submit_ex(wire, i)
        assert not core.gate.stats().breaker_tripped
        core.drain(now=0.0)
        assert core.engine.degrade is None
    finally:
        core.close()


def test_walk_side_quarantines_trip_the_breaker_through_flush():
    # No sampling: the gate admits truncated headers, the walk turns
    # them into ERROR outcomes, and flush feeds those into the window.
    config = MitigationConfig(
        sample_every=0,
        breaker_window=8,
        breaker_trip_rate=0.5,
        breaker_recover_rate=0.05,
        breaker_policy="pass-to-host",
    )
    core = make_core(config, batch_max=8)
    try:
        truncated = [
            wire[:10] for wire in legit_wires(0, 8, stream="serve-walk")
        ]
        for i, wire in enumerate(truncated):
            assert core.submit_ex(wire, i) == "queued"
        collected = []
        core.flush(now=0.0, collect=collected)
        assert all(
            outcome.decision.value == "error" for _, outcome in collected
        )
        assert not core.gate.stats().breaker_tripped
        # The next window closes over those errors and trips.
        for i, wire in enumerate(legit_wires(0, 8, stream="serve-kick")):
            core.submit_ex(wire, i)
        assert core.gate.stats().breaker_tripped
        core.flush(now=0.0)
        assert core.engine.degrade == "pass-to-host"
    finally:
        core.close()


def test_serve_config_mitigation_flag_builds_a_gate():
    core = ServeCore(
        ServeConfig(shards=1, batch_max=8, ring_capacity=64,
                    content_count=32, mitigation=True)
    )
    try:
        assert core.gate is not None
    finally:
        core.close()


# ----------------------------------------------------------------------
# daemon wiring: refusal replies over UDP, healthz ledger
# ----------------------------------------------------------------------
def test_daemon_answers_gate_refusals_in_band():
    from repro.serve.daemon import ServingDaemon
    from tests.serve.test_daemon import http_get

    async def scenario():
        # The default content node has no passport keys, so the gate's
        # verifier runs against the attack state (which enables F_pass
        # and trusts the attack material's labels).
        config = ServeConfig(
            port=0, metrics_port=0, shards=1, batch_max=8,
            batch_timeout_ms=2.0, max_inflight=16, ring_capacity=64,
        )
        core = ServeCore(
            config,
            state_factory=functools.partial(
                attack_state_factory, seed=config.seed
            ),
            mitigation_config=MitigationConfig(
                sample_every=1, breaker_window=0
            ),
        )
        daemon = ServingDaemon(config, core=core)
        task = asyncio.ensure_future(daemon.serve())
        while daemon.http_address is None:
            if task.done():
                task.result()
            await asyncio.sleep(0.01)
        udp_port = daemon.udp_address[1]
        http_port = daemon.http_address[1]
        loop = asyncio.get_running_loop()

        replies = []
        done = asyncio.Event()
        poison = attack_wires("poison", daemon.config.seed, 6,
                              stream="daemon")

        class Client(asyncio.DatagramProtocol):
            def connection_made(self, transport):
                self.transport = transport
                for wire in poison:
                    transport.sendto(wire)

            def datagram_received(self, data, addr):
                replies.append(decode_reply(data))
                if len(replies) == len(poison):
                    done.set()

        transport, _ = await loop.create_datagram_endpoint(
            Client, remote_addr=("127.0.0.1", udp_port)
        )
        await asyncio.wait_for(done.wait(), timeout=5.0)
        transport.close()
        assert [status for status, _, _ in replies] == [
            "quarantined"
        ] * len(poison)

        status, body = await http_get(http_port, "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["quarantined"] == len(poison)
        assert health["shed"] == 0
        assert health["unaccounted"] == 0

        daemon.request_stop("test")
        summary = await task
        assert summary["quarantined"] == len(poison)

    asyncio.run(scenario())
