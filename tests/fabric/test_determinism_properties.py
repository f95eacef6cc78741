"""Property: fabric results are independent of scheduling and placement.

For random scenario shapes (AS counts, host counts, latencies, traffic
seeds), the delivery-record list -- virtual times, hosts, payload
digests, i.e. both delivery order and per-packet outcome -- is
identical between a wiring-order run and an adversarially shuffled
scheduler run, and equal to the monolithic netsim twin.  This is the
testable statement of the synchronizer's determinism argument: every
event-merge key is sender-decided, so interleaving cannot show through.

Multiprocess placement rides the same property (the same round loop
steps the same groups, just behind pipes); it is spot-checked with
parametrized seeds rather than Hypothesis because spawning workers per
example would dominate the suite's runtime (the full-size multiprocess
identity check lives in test_golden_identity and the CI smoke job).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import GoldenSpec, golden_fabric, golden_netsim

specs = st.builds(
    GoldenSpec,
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    ases=st.integers(min_value=4, max_value=7),
    hosts_per_as=st.integers(min_value=1, max_value=3),
    packets=st.integers(min_value=1, max_value=40),
    spacing=st.sampled_from([5e-5, 1e-4, 2e-3]),
    latency=st.sampled_from([1e-3, 5e-3, 2e-2]),
    intra_latency=st.sampled_from([0.0, 1e-3]),
    cycle_time=st.sampled_from([0.0, 1e-9, 1e-6]),
)


@settings(max_examples=25, deadline=None)
@given(spec=specs, scheduler_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scheduler_shuffle_is_invisible(spec, scheduler_seed):
    baseline = golden_fabric(spec).run()
    shuffled = golden_fabric(spec, scheduler_seed=scheduler_seed).run()
    assert shuffled.records == baseline.records
    assert shuffled.fingerprint == baseline.fingerprint


@settings(max_examples=10, deadline=None)
@given(spec=specs)
def test_fabric_matches_monolithic_twin(spec):
    fabric = golden_fabric(spec).run()
    twin = golden_netsim(spec)
    assert fabric.records == twin["records"]
    assert len(fabric.records) == spec.packets
