"""ServeCore unit tests: admission control, conservation, batching,
reply codec and live reconfiguration -- all transport-free, stepping
``submit``/``flush`` deterministically with explicit clocks."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.registry import RegistryMutation
from repro.errors import SimulationError
from repro.realize.ndn import build_interest_packet
from repro.resilience import MitigationConfig
from repro.serve import (
    SHED_REPLY,
    ServeConfig,
    ServeCore,
    decode_reply,
    encode_reply,
)
from repro.serve.client import build_load
from repro.serve.state import LOCAL_EVERY, serve_content_names
from repro.telemetry.export import to_prometheus
from repro.workloads.attack import (
    attack_state_factory,
    attack_wires,
    legit_wires,
)


def make_core(**overrides):
    defaults = dict(
        shards=1,
        backend="serial",
        batch_max=8,
        max_inflight=32,
        ring_capacity=64,
        content_count=32,
    )
    defaults.update(overrides)
    return ServeCore(ServeConfig(**defaults))


@pytest.fixture
def core():
    core = make_core()
    yield core
    core.close()


# ----------------------------------------------------------------------
# reply wire format
# ----------------------------------------------------------------------
def test_reply_codec_round_trips_every_status():
    statuses = ["continue", "forward", "deliver", "drop", "unsupported",
                "error", "shed"]
    for status in statuses:
        for ports in ((), (1,), (4, 65535, 0)):
            for packet in (None, b"", b"\x01payload"):
                wire = encode_reply(status, ports, packet)
                got_status, got_ports, got_packet = decode_reply(wire)
                assert got_status == status
                assert got_ports == ports
                assert got_packet == (packet or b"")


def test_shed_reply_constant_decodes():
    assert decode_reply(SHED_REPLY) == ("shed", (), b"")


def test_decode_rejects_junk():
    with pytest.raises(ValueError):
        decode_reply(b"")
    with pytest.raises(ValueError):
        decode_reply(b"\x01")  # missing port-count byte
    with pytest.raises(ValueError):
        decode_reply(bytes((0x7E, 0)))  # unknown status code
    with pytest.raises(ValueError):
        decode_reply(bytes((1, 2, 0)))  # truncated port list


# ----------------------------------------------------------------------
# admission control + conservation
# ----------------------------------------------------------------------
def test_submit_sheds_past_max_inflight():
    core = make_core(max_inflight=4)
    try:
        packet = build_interest_packet(
            serve_content_names(32, 7)[1]
        ).encode()
        accepted = [core.submit(packet, addr) for addr in range(10)]
        assert accepted == [True] * 4 + [False] * 6
        summary = core.summary()
        assert summary["offered"] == 10
        assert summary["shed"] == 6
        assert summary["pending"] == 4
        assert summary["unaccounted"] == 0
        assert summary["shed_fraction"] == pytest.approx(0.6)
        replies = core.drain(now=1.0)
        assert len(replies) == 4
        summary = core.summary()
        assert summary["processed"] == 4
        assert summary["pending"] == 0
        assert summary["unaccounted"] == 0
        assert summary["replied"] == 4
    finally:
        core.close()


def test_flush_preserves_arrival_order_and_batch_bound(core):
    packet = build_interest_packet(serve_content_names(32, 7)[1]).encode()
    for addr in range(20):
        core.submit(packet, addr)
    replies = core.flush(now=1.0)
    assert [addr for addr, _ in replies] == list(range(8))  # batch_max
    replies = core.drain(now=1.0)
    assert [addr for addr, _ in replies] == list(range(8, 20))
    for _, wire in replies:
        status, _, _ = decode_reply(wire)
        assert status in ("forward", "deliver", "drop")


def test_conservation_over_zipf_load():
    core = make_core(max_inflight=512)
    try:
        load = build_load(300, content_count=32)
        for index, packet in enumerate(load):
            assert core.submit(packet, index)
            if index % 50 == 49:
                core.flush(now=1.0 + index / 100.0)
        core.drain(now=5.0)
        summary = core.summary()
        assert summary["offered"] == 300
        assert summary["unaccounted"] == 0
        assert summary["replied"] == 300
        assert sum(summary["decisions"].values()) == summary["processed"]
        # The Zipf interest/data mix must exercise more than one verdict.
        assert len(summary["decisions"]) >= 2
    finally:
        core.close()


# Legit, forged-passport and spoofed-source wires: with the tight gate
# below a drawn stream meets every admission status.
_POOL = (
    legit_wires(0, 8, stream="burst")
    + attack_wires("poison", 0, 4, stream="burst")
    + attack_wires("spoof", 0, 8, stream="burst")
)
_LEDGER = ("offered", "shed", "rate_limited", "quarantined", "pending",
           "unaccounted", "mitigation")


@settings(max_examples=40, deadline=None)
@given(
    stream=st.lists(st.sampled_from(_POOL), max_size=60),
    cuts=st.lists(st.integers(0, 60), max_size=6),
    mitigation=st.booleans(),
)
def test_submit_many_equals_submit_ex_one_by_one(stream, cuts, mitigation):
    """A burst admitted under one lock acquisition is decided packet
    by packet: same statuses, queue order, ledger and gate stats as
    the same datagrams through ``submit_ex``, however the stream is
    cut into bursts."""

    def make():
        return ServeCore(
            ServeConfig(shards=1, batch_max=8, max_inflight=6,
                        ring_capacity=64, content_count=32),
            state_factory=functools.partial(attack_state_factory, seed=0),
            mitigation_config=MitigationConfig(
                per_flow_rate=0.05, per_flow_burst=2.0,
                new_flow_rate=0.2, new_flow_burst=6.0,
                sample_every=1, breaker_window=0,
            ) if mitigation else None,
        )

    one_by_one, bursty = make(), make()
    try:
        datagrams = [(wire, index) for index, wire in enumerate(stream)]
        expected = [
            one_by_one.submit_ex(wire, addr) for wire, addr in datagrams
        ]
        edges = sorted({0, len(datagrams), *(
            cut for cut in cuts if cut < len(datagrams)
        )})
        got = []
        for start, stop in zip(edges, edges[1:]):
            got += bursty.submit_many(datagrams[start:stop])
        assert got == expected
        ledger, reference = bursty.summary(), one_by_one.summary()
        assert ledger["ingress_bursts"] == len(edges) - 1
        for key in _LEDGER:
            assert ledger[key] == reference[key], key
        assert bursty.drain(now=0.0) == one_by_one.drain(now=0.0)
    finally:
        one_by_one.close()
        bursty.close()


def test_flush_on_empty_queue_is_a_noop(core):
    assert core.flush(now=1.0) == []
    summary = core.summary()
    assert summary["flushes"] == 0
    assert summary["unaccounted"] == 0
    assert summary["batch_latency_p99"] == 0.0


# ----------------------------------------------------------------------
# live reconfiguration
# ----------------------------------------------------------------------
def test_reconfigure_changes_live_decisions(core):
    names = serve_content_names(32, 7)
    local = names[0]  # index % LOCAL_EVERY == 0: producer-local
    assert LOCAL_EVERY == 16
    interest = build_interest_packet(local).encode()

    core.submit(interest, "a")
    (_, wire), = core.flush(now=1.0)
    assert decode_reply(wire)[0] == "deliver"

    result = core.reconfigure(RegistryMutation(drop_keys=(4,)))
    assert result["generation"] == 1
    assert result["registry_version"] > 0

    # Without F_FIB the interest's FN is ignored (non-path-critical,
    # paper section 2.4) and the packet default-forwards instead.
    core.submit(interest, "b")
    (_, wire), = core.flush(now=2.0)
    assert decode_reply(wire)[0] == "forward"

    result = core.reconfigure(RegistryMutation(restore_defaults=True))
    assert result["generation"] == 2
    core.submit(interest, "c")
    (_, wire), = core.flush(now=3.0)
    assert decode_reply(wire)[0] == "deliver"

    summary = core.summary()
    assert summary["reconfigs"] == 2
    assert summary["unaccounted"] == 0


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_snapshot_metrics_includes_serve_and_engine_counters():
    core = make_core(max_inflight=2)
    try:
        packet = build_interest_packet(
            serve_content_names(32, 7)[1]
        ).encode()
        for addr in range(5):
            core.submit(packet, addr)
        core.drain(now=1.0)
        snapshot = core.snapshot_metrics()
        assert snapshot.counters["serve_offered_total"] == 5
        assert snapshot.counters["serve_shed_total"] == 3
        assert snapshot.counters["engine_shed_total"] == 3
        assert snapshot.counters["serve_replies_total"] == 2
        assert snapshot.counters["engine_packets_processed_total"] == 2
        assert snapshot.gauges["serve_pending"] == 0.0
    finally:
        core.close()


def test_accumulated_flow_cache_gauges_describe_the_live_caches():
    """Ten flushes are ten looks at the same two caches: the ledger's
    size/capacity must be theirs, not ten times theirs."""
    from repro.core.flowcache import DEFAULT_CAPACITY
    from repro.workloads.throughput import (
        dip32_state_factory,
        make_zipf_engine_packets,
    )

    wires = make_zipf_engine_packets(packet_count=640)
    core = ServeCore(
        ServeConfig(shards=2, backend="serial"),
        state_factory=dip32_state_factory,
    )
    try:
        for start in range(0, 640, 64):
            core.submit_many(
                [(wire, addr) for addr, wire in enumerate(wires[start:start + 64])]
            )
            core.flush(now=1.0 + start)
        cache = core.summary()["flow_cache"]
    finally:
        core.close()
    # No evictions: every distinct flow holds one entry on one shard.
    assert cache["size"] == cache["peak_size"] == len(set(wires))
    assert cache["capacity"] == 2 * DEFAULT_CAPACITY
    assert cache["hits"] + cache["misses"] == 640


def test_exported_throughput_is_over_the_summed_flush_walls():
    """Flushes run one after another: the exported wall time is their
    sum, and the rate is processed packets over that sum -- not over
    the longest single flush."""
    from repro.workloads.throughput import (
        dip32_state_factory,
        make_zipf_engine_packets,
    )

    wires = make_zipf_engine_packets(packet_count=320)
    core = ServeCore(
        ServeConfig(shards=2, backend="serial", batch_max=32),
        state_factory=dip32_state_factory,
    )
    walls = []
    run = core.engine.run

    def timed_run(batch, now=None):
        report = run(batch, now=now)
        walls.append(report.wall_seconds)
        return report

    core.engine.run = timed_run
    try:
        for start in range(0, 320, 32):
            core.submit_many(
                [(wire, addr) for addr, wire in enumerate(wires[start:start + 32])]
            )
            core.flush(now=1.0)
        gauges = core.snapshot_metrics().gauges
        processed = core.summary()["processed"]
    finally:
        core.close()
    assert len(walls) == 10 and processed == 320
    assert gauges["engine_wall_seconds"] == pytest.approx(sum(walls))
    assert gauges["engine_pkts_per_second"] == pytest.approx(
        processed / sum(walls)
    )


def test_burst_and_flush_trigger_metrics(core):
    """Per-burst / per-flush observability: burst count, log2 burst
    sizes and why each flush ran -- in the snapshot and the ledger."""
    packet = build_interest_packet(serve_content_names(32, 7)[1]).encode()
    core.submit_many([(packet, addr) for addr in range(8)])
    core.flush(now=1.0, trigger="size")
    core.submit_many([(packet, addr) for addr in range(3)])
    core.flush(now=1.0, trigger="timeout")
    core.submit_ex(packet, "single")  # not a burst
    core.drain(now=1.0)
    summary = core.summary()
    assert summary["ingress_bursts"] == 2
    assert summary["flush_triggers"] == {
        "size": 1, "timeout": 1, "drain": 1,
    }
    assert summary["reply_retries"] == 0
    snapshot = core.snapshot_metrics()
    assert snapshot.counters["serve_ingress_bursts_total"] == 2
    assert snapshot.counters["serve_reply_retries_total"] == 0
    for reason in ("size", "timeout", "drain"):
        name = f'serve_flush_trigger_total{{reason="{reason}"}}'
        assert snapshot.counters[name] == 1
    sizes = snapshot.histograms["serve_ingress_burst_size"]
    assert (sizes.count, sizes.sum, sizes.low, sizes.high) == (2, 11, 3, 8)
    text = to_prometheus(snapshot)
    assert 'serve_flush_trigger_total{reason="timeout"} 1' in text
    assert "serve_ingress_burst_size_count 2" in text


def test_serve_executor_is_in_the_conformance_matrix():
    # The framing+batching path is differentially tested like every
    # other execution strategy (tests/conformance replays the corpus
    # through it; `repro conformance --fuzz` covers it too).
    from repro.conformance.executors import EXECUTOR_NAMES

    assert "serve" in EXECUTOR_NAMES


def test_config_validation():
    with pytest.raises(SimulationError):
        ServeConfig(batch_max=0)
    with pytest.raises(SimulationError):
        ServeConfig(ring_capacity=4, batch_max=8)
    with pytest.raises(SimulationError):
        ServeConfig(max_inflight=0)
    # None is the "off" spelling; a non-positive bound is an error.
    for bad in ({"cs_ttl": 0}, {"cs_ttl": -1}, {"pit_capacity": -1},
                {"max_packets": -1}):
        with pytest.raises(SimulationError):
            ServeConfig(**bad)
    ServeConfig(cs_ttl=None, pit_capacity=None, max_packets=0)
