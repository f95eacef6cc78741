"""Decision identity: a MitigatedEngine is invisible on legit traffic.

The gate's defaults are tuned so legitimate traffic -- every
conformance scenario's valid wire streams, plus the attack harness's
legit blend -- is never refused: outcomes (decision, reason, ports,
rewritten packet) must match the bare engine byte for byte.  This is
the safety half of the mitigation story; the goodput half is
``repro paper ATTACK``.
"""

import functools

import pytest

from repro.conformance.scenarios import ALL_SCENARIOS, Scenario
from repro.engine import EngineConfig, ForwardingEngine
from repro.resilience import MitigatedEngine
from repro.workloads.attack import attack_state_factory, legit_wires


def outcome_view(report):
    return [
        None
        if outcome is None
        else (
            outcome.decision,
            outcome.reason,
            tuple(outcome.ports),
            outcome.packet,
        )
        for outcome in report.outcomes
    ]


@pytest.mark.parametrize("name", ALL_SCENARIOS)
def test_scenario_traffic_is_identical_through_the_gate(name):
    scenario = Scenario(name, seed=5)
    wires = scenario.wires(96, stream="mitigation-identity")
    config = EngineConfig(num_shards=1, backend="serial", batch_size=16)

    def build():
        return ForwardingEngine(
            scenario.state_factory,
            config=config,
            registry_factory=scenario.registry_factory,
        )

    with build() as bare:
        bare_report = bare.run(wires)
    with MitigatedEngine(build()) as mitigated:
        mitigated_report = mitigated.run(wires)

    assert mitigated.stats().rate_limited == 0
    assert mitigated.stats().quarantined == 0
    assert outcome_view(bare_report) == outcome_view(mitigated_report)
    assert bare_report.decisions == mitigated_report.decisions


def test_attack_harness_legit_blend_is_identical_through_the_gate():
    factory = functools.partial(attack_state_factory, seed=11)
    wires = legit_wires(11, 800, stream="identity")
    config = EngineConfig(num_shards=2, backend="serial", flow_cache=True)
    with ForwardingEngine(factory, config=config) as bare:
        bare_report = bare.run(wires, now=0.0)
    with MitigatedEngine(ForwardingEngine(factory, config=config)) as gated:
        gated_report = gated.run(wires, now=0.0)
    assert gated.stats().admitted == len(wires)
    assert outcome_view(bare_report) == outcome_view(gated_report)
    # Conservation with zero refusals reduces to the PR 4 law.
    assert gated_report.packets_unaccounted == 0
