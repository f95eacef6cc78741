"""The differ catches exactly what it should, aspect by aspect.

No real executor diverges (that is what the corpus proves), so these
tests sabotage a faithful reference clone (:func:`mutant_spec`) one
aspect at a time and assert :func:`diff_case` reports precisely that
corruption -- and stays silent when the executor's spec says the
aspect is out of scope (notes, cycles, reason, packets outside a
domain-limited executor's domain).
"""

import json

import pytest

from repro.conformance import (
    Divergence,
    DivergenceReport,
    Scenario,
    degraded_expectation,
    diff_case,
)
from repro.conformance.executors import WireOutcome

from tests.conformance.support import mutant_spec

FORWARD = WireOutcome("forward", (3,), b"\x00\x01\x02", None)
LIMIT = WireOutcome("drop", (), None, "limit")
QUARANTINE = WireOutcome("error", (), None, "FieldRangeError")


class TestDegradedExpectation:
    def test_non_degradable_verdicts_pass_through(self):
        for outcome in (FORWARD, QUARANTINE):
            assert (
                degraded_expectation(b"\x00" * 6, outcome, "drop", 1)
                == outcome
            )

    def test_pass_to_host_delivers(self):
        got = degraded_expectation(b"\x00" * 6, LIMIT, "pass-to-host", 1)
        assert got == WireOutcome("deliver", (), None, "degraded")

    def test_drop_policy_drops(self):
        got = degraded_expectation(b"\x00" * 6, LIMIT, "drop", 1)
        assert got == WireOutcome("drop", (), None, "degraded")

    def test_best_effort_ip_edits_only_the_hop_limit(self):
        wire = bytes(range(16))
        got = degraded_expectation(wire, LIMIT, "best-effort-ip", 7)
        assert got.decision == "forward" and got.ports == (7,)
        assert got.packet == wire[:3] + bytes((wire[3] - 1,)) + wire[4:]

    def test_best_effort_ip_hop_limit_wraps(self):
        wire = b"\x00\x00\x00\x00\x00\x00"
        got = degraded_expectation(wire, LIMIT, "best-effort-ip", 7)
        assert got.packet[3] == 0xFF  # same wraparound as the worker

    def test_best_effort_ip_without_default_port_drops(self):
        got = degraded_expectation(b"\x00" * 6, LIMIT, "best-effort-ip", None)
        assert got == WireOutcome("drop", (), None, "degraded")


class TestDiffCase:
    def case(self, spec, count=8, cost_model=None):
        scenario = Scenario("ip")
        wires = scenario.wires(count, stream="differ")
        return wires, diff_case(
            scenario, wires, [spec], cost_model=cost_model
        )

    def test_faithful_clone_is_clean(self):
        _, report = self.case(mutant_spec())
        assert report.ok
        assert report.comparisons == 8
        assert report.packets == 8 and report.cases == 1

    def test_decision_flip_is_caught_with_the_wire(self):
        def corrupt(result, wires):
            result.outcomes[2] = WireOutcome("deliver", (), None, "bogus")

        wires, report = self.case(mutant_spec(corrupt))
        assert not report.ok
        flagged = [d for d in report.divergences if d.index == 2]
        assert len(flagged) == 1
        divergence = flagged[0]
        assert divergence.executor == "mutant"
        assert divergence.aspect == "outcome"
        assert divergence.scenario == "ip"
        assert divergence.wire == wires[2].hex()

    def test_note_tampering_caught_only_when_spec_compares_notes(self):
        def corrupt(result, wires):
            result.notes[1] = ("tampered",)

        _, silent = self.case(mutant_spec(corrupt, compare_notes=False))
        assert silent.ok
        _, caught = self.case(mutant_spec(corrupt, compare_notes=True))
        assert [d.aspect for d in caught.divergences] == ["notes"]

    def test_cycle_tampering_needs_spec_and_cost_model(self, cost_model):
        def corrupt(result, wires):
            for index, triple in enumerate(result.cycles):
                if triple is not None:
                    result.cycles[index] = (triple[0] + 1,) + triple[1:]
                    return

        spec = mutant_spec(corrupt, compare_cycles=True)
        _, without_model = self.case(spec)
        assert without_model.ok  # no cost model -> cycles not modeled
        _, with_model = self.case(spec, cost_model=cost_model)
        assert [d.aspect for d in with_model.divergences] == ["cycles"]

    def test_reason_tampering_respects_compare_reason(self):
        def corrupt(result, wires):
            result.outcomes[0] = result.outcomes[0]._replace(reason="bogus")

        _, lenient = self.case(mutant_spec(corrupt, compare_reason=False))
        assert lenient.ok
        _, strict = self.case(mutant_spec(corrupt, compare_reason=True))
        assert not strict.ok

    def test_state_tampering_is_a_state_divergence(self):
        def corrupt(result, wires):
            result.state = dict(result.state, generation=10**9)

        _, report = self.case(mutant_spec(corrupt))
        assert [d.aspect for d in report.divergences] == ["state"]
        assert report.divergences[0].index == -1

    def test_outcome_count_mismatch_is_terminal(self):
        def corrupt(result, wires):
            result.outcomes.pop()

        _, report = self.case(mutant_spec(corrupt))
        assert len(report.divergences) == 1
        assert report.divergences[0].index == -1
        assert "outcomes" in report.divergences[0].got

    def test_domain_limited_none_skips_the_packet_and_the_state(self):
        def corrupt(result, wires):
            result.outcomes[0] = None  # "out of my domain"
            result.state = dict(result.state, generation=10**9)

        _, report = self.case(mutant_spec(corrupt, domain_limited=True))
        assert report.ok  # skipped packet AND state excluded
        assert report.comparisons == 7

    def test_lossy_executor_is_an_outcome_divergence(self):
        # Outside a domain-limited cell a None outcome is a lost packet,
        # never a silent skip.
        def corrupt(result, wires):
            result.outcomes[3] = None

        _, report = self.case(mutant_spec(corrupt))
        assert not report.ok
        assert [(d.index, d.aspect, d.got) for d in report.divergences] == [
            (3, "outcome", "None")
        ]
        assert report.comparisons == 8

    def test_domain_limited_skips_reference_limit_drops(self):
        scenario = Scenario("ip")
        from repro.conformance.corpus import _limit_wire

        wires = [_limit_wire(0)] + scenario.wires(3, stream="differ-limit")

        def corrupt(result, wires):
            result.outcomes[0] = WireOutcome("deliver", (), None, None)

        strict = diff_case(scenario, wires, [mutant_spec(corrupt)])
        assert not strict.ok
        lenient = diff_case(
            scenario, wires, [mutant_spec(corrupt, domain_limited=True)]
        )
        assert lenient.ok
        assert lenient.comparisons == 3


class TestReport:
    def make_report(self):
        def corrupt(result, wires):
            result.outcomes[0] = WireOutcome("deliver", (), None, None)

        scenario = Scenario("ip")
        return diff_case(
            scenario, scenario.wires(4, stream="report"), [mutant_spec(corrupt)]
        )

    def test_json_round_trip(self):
        report = self.make_report()
        clone = DivergenceReport.from_dict(json.loads(report.to_json()))
        assert clone.to_dict() == report.to_dict()
        assert clone.divergences == report.divergences
        assert isinstance(clone.divergences[0], Divergence)

    def test_merge_accumulates(self):
        total = DivergenceReport()
        total.merge(self.make_report())
        total.merge(self.make_report())
        assert total.cases == 2 and total.packets == 8
        assert len(total.divergences) == 2
        assert total.scenarios == {"ip": 8}
        assert total.executors == ["mutant"]

    def test_summary_reads_status(self):
        report = self.make_report()
        assert "1 DIVERGENCES" in report.summary()
        clean = DivergenceReport(packets=3, cases=1)
        assert "OK" in clean.summary()

    @pytest.mark.parametrize("field", ["scenario", "executor", "aspect"])
    def test_divergence_carries_context(self, field):
        divergence = self.make_report().divergences[0]
        assert getattr(divergence, field)
