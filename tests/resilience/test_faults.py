"""Unit tests for the scripted fault-injection layer.

The injector is the foundation of every chaos test in the repo, so its
own behaviour -- validation, deterministic replay, firing budgets,
shard/batch pinning, JSON round-trips -- is pinned down here before
anything downstream relies on it.
"""

import json

import pytest

from repro.errors import SimulationError
from repro.resilience import (
    CORRUPT,
    CRASH,
    DELAY,
    DROP_FRAME,
    Fault,
    FaultInjector,
    FaultPlan,
    LINK_KINDS,
    OP_EXCEPTION,
    STALL,
    TRUNCATE,
    WORKER_KINDS,
    corrupt_bytes,
)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            Fault(kind="cosmic-ray")

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Fault(kind=STALL, delay=-0.1)

    def test_negative_times_rejected(self):
        with pytest.raises(SimulationError):
            Fault(kind=CRASH, times=-1)

    @pytest.mark.parametrize("probability", [0.0, -0.5, 1.5])
    def test_bad_probability_rejected(self, probability):
        with pytest.raises(SimulationError):
            Fault(kind=CRASH, probability=probability)

    def test_negative_packet_index_rejected(self):
        with pytest.raises(SimulationError):
            Fault(kind=CORRUPT, packet=-1)

    def test_kind_sets_cover_all_kinds(self):
        assert CRASH in WORKER_KINDS and CRASH not in LINK_KINDS
        assert DROP_FRAME in LINK_KINDS and DROP_FRAME not in WORKER_KINDS
        # Wire damage is injectable on both sides of the pipe/cable.
        for kind in (CORRUPT, TRUNCATE, STALL, DELAY):
            assert kind in WORKER_KINDS and kind in LINK_KINDS


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(faults=(Fault(kind=CRASH),))

    def test_crash_scripted_matches_shard(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=1),))
        assert plan.crash_scripted(1)
        assert not plan.crash_scripted(0)
        wildcard = FaultPlan(faults=(Fault(kind=CRASH),))
        assert wildcard.crash_scripted(0) and wildcard.crash_scripted(7)
        no_crash = FaultPlan(faults=(Fault(kind=STALL, delay=0.1),))
        assert not no_crash.crash_scripted(0)

    def test_json_round_trip(self):
        plan = FaultPlan(
            faults=(
                Fault(kind=CRASH, shard=1, batch=3),
                Fault(kind=CORRUPT, packet=2, times=0, probability=0.5),
                Fault(kind=DELAY, delay=0.25),
            ),
            seed=99,
        )
        assert FaultPlan.from_json(json.dumps(plan.to_dict())) == plan

    def test_from_json_rejects_non_object(self):
        with pytest.raises(SimulationError):
            FaultPlan.from_json("[1, 2, 3]")

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(SimulationError):
            FaultPlan.from_json("{not json")

    def test_from_dict_defaults(self):
        plan = FaultPlan.from_dict({"faults": [{"kind": CRASH}]})
        fault = plan.faults[0]
        assert fault.shard is None and fault.batch is None
        assert fault.times == 1 and fault.probability == 1.0


class TestFaultInjector:
    def test_shard_pinning(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, shard=2),))
        assert not FaultInjector(plan, shard=0).actions(0)
        assert FaultInjector(plan, shard=2).actions(0)

    def test_batch_pinning(self):
        plan = FaultPlan(faults=(Fault(kind=CRASH, batch=3),))
        injector = FaultInjector(plan, shard=0)
        assert not injector.actions(0)
        assert not injector.actions(2)
        assert injector.actions(3)

    def test_times_budget(self):
        plan = FaultPlan(faults=(Fault(kind=STALL, delay=0.1, times=2),))
        injector = FaultInjector(plan, shard=0)
        fired = [bool(injector.actions(seq)) for seq in range(5)]
        assert fired == [True, True, False, False, False]
        assert injector.injected == 2

    def test_times_zero_is_unlimited(self):
        plan = FaultPlan(faults=(Fault(kind=STALL, delay=0.1, times=0),))
        injector = FaultInjector(plan, shard=0)
        assert all(injector.actions(seq) for seq in range(10))
        assert injector.injected == 10

    def test_kinds_filter(self):
        plan = FaultPlan(
            faults=(Fault(kind=CRASH, times=0), Fault(kind=DROP_FRAME, times=0))
        )
        injector = FaultInjector(plan, shard=0)
        worker_only = injector.actions(0, WORKER_KINDS)
        assert [fault.kind for fault in worker_only] == [CRASH]
        link_only = injector.actions(1, LINK_KINDS)
        assert [fault.kind for fault in link_only] == [DROP_FRAME]

    def test_probabilistic_faults_are_deterministic(self):
        plan = FaultPlan(
            faults=(Fault(kind=CRASH, times=0, probability=0.5),), seed=7
        )
        first = [
            bool(FaultInjector(plan, shard=1).actions(seq))
            for seq in range(0, 1)
        ]
        runs = []
        for _ in range(2):
            injector = FaultInjector(plan, shard=1)
            runs.append([bool(injector.actions(seq)) for seq in range(50)])
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])  # actually probabilistic
        assert first  # smoke: list built

    def test_op_exception_kind_matches(self):
        plan = FaultPlan(faults=(Fault(kind=OP_EXCEPTION, packet=1),))
        injector = FaultInjector(plan, shard=0)
        assert [f.kind for f in injector.actions(0)] == [OP_EXCEPTION]


class TestCorruptBytes:
    def test_truncate_halves(self):
        assert corrupt_bytes(b"12345678", TRUNCATE) == b"1234"

    def test_corrupt_flips_fn_count_byte(self):
        data = bytes(range(8))
        damaged = corrupt_bytes(data, CORRUPT)
        assert len(damaged) == len(data)
        assert damaged[2] == data[2] ^ 0xFF
        assert damaged[:2] == data[:2] and damaged[3:] == data[3:]

    def test_short_buffer_becomes_empty(self):
        assert corrupt_bytes(b"ab", CORRUPT) == b""
