"""MitigationGate / MitigatedEngine unit tests (DESIGN.md 3.14).

Everything runs on the gate's logical clock -- one tick per offered
packet -- so every assertion here is exact, not statistical.
"""

import functools

import pytest

from repro.core.operations.base import Decision
from repro.core.packet import DipPacket
from repro.core.state import NodeState
from repro.engine import EngineConfig, ForwardingEngine
from repro.errors import SimulationError
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_data_header
from repro.resilience import (
    ADMIT,
    QUARANTINED,
    RATE_LIMITED,
    MitigatedEngine,
    MitigationConfig,
    MitigationGate,
    MitigationStats,
)
from repro.workloads.attack import (
    attack_state_factory,
    attack_wires,
    legit_wires,
    make_attack_blend,
    passport_material,
)


def ipv4_wire(dst: int, src: int = 0x01020304) -> bytes:
    return build_ipv4_packet(dst, src, b"x").encode()


def passport_data(name: int, label: bytes, key: bytes,
                  content: bytes = b"content", forge: bool = False) -> bytes:
    from repro.core.operations.passport import passport_tag

    tag = passport_tag(key, label, content)
    if forge:
        tag = bytes([tag[0] ^ 1]) + tag[1:]
    header = build_data_header(name, with_passport=True, label=label, tag=tag)
    return DipPacket(header=header, payload=content).encode()


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bad",
    [
        dict(per_flow_rate=0.0),
        dict(per_flow_burst=0.5),
        dict(new_flow_rate=-1.0),
        dict(new_flow_burst=0.0),
        dict(max_buckets=0),
        dict(sample_every=-1),
        dict(escalation_window=0),
        dict(breaker_window=-1),
        dict(breaker_trip_rate=0.0),
        dict(breaker_trip_rate=1.5),
        dict(breaker_recover_rate=0.5),  # >= trip rate
        dict(breaker_policy="explode"),
    ],
)
def test_config_rejects_bad_shapes(bad):
    with pytest.raises(SimulationError):
        MitigationConfig(**bad)


# ----------------------------------------------------------------------
# token buckets
# ----------------------------------------------------------------------
def test_per_flow_bucket_drains_then_refills_on_ticks():
    gate = MitigationGate(
        MitigationConfig(per_flow_burst=1.0, per_flow_rate=0.5,
                         sample_every=0, breaker_window=0)
    )
    hog = ipv4_wire(0x0A000001)
    other = ipv4_wire(0x0B000001)
    assert gate.admit(hog) is ADMIT  # tick 1: burst spent
    # Tick 2: only half a token has refilled.
    assert gate.admit(hog) is RATE_LIMITED
    assert gate.admit(other) is ADMIT  # tick 3
    # Tick 4: two ticks since the last refill accrue a full token.
    assert gate.admit(hog) is ADMIT
    stats = gate.stats()
    assert stats.rate_limited_flow == 1
    assert stats.rate_limited == 1
    assert stats.active_flows == 2


def test_new_flow_admission_bucket_refuses_spoof_entropy():
    # Admitting a brand-new flow costs a shared token: burst 4, and a
    # refill rate of half a token per offered packet.
    gate = MitigationGate(
        MitigationConfig(new_flow_burst=4.0, new_flow_rate=0.5,
                         sample_every=0, breaker_window=0)
    )
    verdicts = [gate.admit(ipv4_wire(0xC0000000 + i)) for i in range(8)]
    admitted = verdicts.count(ADMIT)
    assert admitted < 8
    stats = gate.stats()
    assert stats.rate_limited_new_flow == 8 - admitted
    # Refused spoof packets allocated no state.
    assert stats.active_flows == admitted


def test_bucket_lru_eviction_is_bounded_and_counted():
    gate = MitigationGate(
        MitigationConfig(max_buckets=4, sample_every=0, breaker_window=0)
    )
    for i in range(10):
        gate.admit(ipv4_wire(0x0A000000 + i))
    stats = gate.stats()
    assert stats.active_flows == 4
    assert stats.bucket_evictions == 6


# ----------------------------------------------------------------------
# F_pass verification sampling
# ----------------------------------------------------------------------
def verify_state() -> NodeState:
    return attack_state_factory(seed=3)


def test_sampler_quarantines_forged_tag_and_escalates():
    state = verify_state()
    label, key = passport_material(3)[0]
    gate = MitigationGate(
        MitigationConfig(sample_every=1, escalation_window=4,
                         breaker_window=0),
        verify_state=state,
    )
    forged = passport_data(1, label, key, forge=True)
    valid = passport_data(2, label, key)
    assert gate.admit(forged) is QUARANTINED
    assert gate.stats().escalated == 1
    # Escalated: every F_pass packet is verified until a clean window.
    for _ in range(4):
        assert gate.admit(valid) is ADMIT
    assert gate.stats().escalated == 0
    stats = gate.stats()
    assert stats.pass_failures == 1
    assert stats.quarantined == 1
    assert stats.pass_sampled == 5


def test_sampler_skips_between_samples_until_escalated():
    state = verify_state()
    label, key = passport_material(3)[0]
    gate = MitigationGate(
        MitigationConfig(sample_every=4, breaker_window=0),
        verify_state=state,
    )
    forged = passport_data(9, label, key, forge=True)
    # Only every 4th F_pass packet is checked, so the first three
    # forgeries slip through (the engine walk still refuses them).
    verdicts = [gate.admit(forged) for _ in range(4)]
    assert verdicts == [ADMIT, ADMIT, ADMIT, QUARANTINED]
    # ... after which verification is escalated to every packet.
    assert gate.admit(forged) is QUARANTINED


def test_unknown_label_quarantines_and_non_pass_packets_skip():
    state = verify_state()
    gate = MitigationGate(
        MitigationConfig(sample_every=1, breaker_window=0),
        verify_state=state,
    )
    bogus = passport_data(7, b"\xee" * 16, b"\x01" * 16)
    assert gate.admit(bogus) is QUARANTINED
    # Packets without a router F_pass FN never hit the sampler.
    assert gate.admit(ipv4_wire(0x0A000001)) is ADMIT
    assert gate.stats().pass_sampled == 1


def test_verification_disabled_without_state():
    gate = MitigationGate(MitigationConfig(sample_every=1))
    label, key = passport_material(3)[0]
    assert gate.admit(passport_data(1, label, key, forge=True)) is ADMIT
    assert gate.stats().pass_sampled == 0


# ----------------------------------------------------------------------
# circuit breaker
# ----------------------------------------------------------------------
def test_breaker_trips_and_recovers_on_windowed_rate():
    state = verify_state()
    label, key = passport_material(3)[0]
    gate = MitigationGate(
        MitigationConfig(sample_every=1, breaker_window=4,
                         breaker_trip_rate=0.5, breaker_recover_rate=0.1),
        verify_state=state,
    )
    forged = passport_data(1, label, key, forge=True)
    clean = ipv4_wire(0x0A000001)
    for _ in range(4):
        gate.admit(forged)
    assert gate.tripped
    assert gate.poll_breaker() == "trip"
    assert gate.poll_breaker() is None  # consumed
    for _ in range(4):
        gate.admit(clean)
    assert not gate.tripped
    assert gate.poll_breaker() == "recover"
    stats = gate.stats()
    assert stats.breaker_trips == 1
    assert stats.breaker_recoveries == 1


def test_observe_bad_feeds_engine_side_errors_into_window():
    gate = MitigationGate(
        MitigationConfig(sample_every=0, breaker_window=4,
                         breaker_trip_rate=0.5)
    )
    clean = ipv4_wire(0x0A000001)
    gate.observe_bad(3)
    for _ in range(4):
        gate.admit(clean)
    assert gate.tripped


# ----------------------------------------------------------------------
# stats plumbing
# ----------------------------------------------------------------------
def test_stats_to_dict_adds_rate_limited():
    stats = MitigationStats(offered=5, admitted=3, rate_limited_flow=1,
                            rate_limited_new_flow=1, active_flows=2)
    assert stats.rate_limited == 2
    data = stats.to_dict()
    assert data["rate_limited"] == 2
    assert data["offered"] == 5 and data["active_flows"] == 2


def test_stats_snapshot_exposes_prometheus_counters():
    stats = MitigationStats(offered=4, admitted=2, rate_limited_flow=1,
                            rate_limited_new_flow=1, breaker_tripped=1)
    snap = stats.snapshot()
    assert snap.counters["mitigation_offered_total"] == 4
    assert snap.counters['mitigation_rate_limited_total{kind="flow"}'] == 1
    assert (
        snap.counters['mitigation_rate_limited_total{kind="new-flow"}'] == 1
    )
    assert snap.gauges["mitigation_breaker_tripped"] == 1.0


# ----------------------------------------------------------------------
# MitigatedEngine
# ----------------------------------------------------------------------
def make_engine(**overrides):
    defaults = dict(num_shards=2, backend="serial", flow_cache=True)
    defaults.update(overrides)
    # Seed 0 matches the wire builders below, so the gate's verify
    # state trusts the same labels the legit data packets carry.
    return ForwardingEngine(
        functools.partial(attack_state_factory, seed=0),
        EngineConfig(**defaults),
    )


def test_mitigated_engine_splices_refusals_in_input_order():
    wires, _ = make_attack_blend(400, 0.5, seed=1)
    with MitigatedEngine(
        make_engine(),
        MitigationConfig(sample_every=1, breaker_window=0),
    ) as engine:
        report = engine.run(wires, now=0.0)
    assert report.packets_offered == len(wires)
    assert len(report.outcomes) == len(wires)
    refused = [
        outcome
        for outcome in report.outcomes
        if outcome is not None
        and outcome.reason in ("rate-limited", "quarantined")
    ]
    assert report.packets_quarantined + report.packets_rate_limited == len(
        refused
    )
    assert len(refused) > 0
    assert all(o.decision is Decision.DROP for o in refused)
    # The extended conservation law holds with refusals included.
    assert report.packets_unaccounted == 0


def test_mitigated_engine_is_identity_on_legit_traffic():
    wires = legit_wires(0, 400)
    with make_engine() as bare:
        bare_report = bare.run(wires, now=0.0)
    with MitigatedEngine(make_engine()) as mitigated:
        mit_report = mitigated.run(wires, now=0.0)
    assert mitigated.stats().admitted == len(wires)
    assert [
        (o.decision, o.reason) for o in bare_report.outcomes
    ] == [(o.decision, o.reason) for o in mit_report.outcomes]


def test_breaker_trip_flips_engine_degrade_and_restores():
    # An all-poison stream with every-packet verification trips the
    # breaker inside one run; a clean stream then recovers it.
    poison = attack_wires("poison", 0, 64, stream="breaker")
    legit = legit_wires(0, 64, stream="breaker")
    config = MitigationConfig(
        sample_every=1, breaker_window=16,
        breaker_trip_rate=0.5, breaker_recover_rate=0.05,
        breaker_policy="pass-to-host",
    )
    with MitigatedEngine(make_engine(degrade=None), config) as engine:
        assert engine.degrade is None
        engine.run(poison, now=0.0)
        assert engine.degrade == "pass-to-host"
        engine.run(legit, now=0.0)
        assert engine.degrade is None
