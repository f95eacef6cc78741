"""Property: a compiled columnar kernel is never reused across a
generation bump (mirror of tests/core/test_reconfig_invalidation_
properties.py for the batch specializer).

Hypothesis warms a specializer over random pure IPv4 flows until
kernels exist, then applies a random :class:`RegistryMutation`.
Whatever the mutation was, if it moved ``registry.version`` the very
next batch must run on *freshly compiled* kernels: the generation
token (:meth:`RouterProcessor.state_token`) changed, so the kernel
cache flushes before any lookup.  Stale kernels would bake dropped
operation modules, old FIB interval tables and old locality sets into
"pure" decisions -- exactly the staleness the reconfig protocol
forbids for the flow cache.
"""

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.processor import RouterProcessor
from repro.core.registry import RegistryMutation
from repro.core.state import NodeState
from repro.engine.columnar import ColumnarSpecializer, columnar_available
from repro.realize.ip import build_ipv4_packet

pytestmark = pytest.mark.skipif(
    not columnar_available(), reason="numpy unavailable"
)

# Keys worth dropping: pure lookups (MATCH_32=1 compiles into these
# kernels), stateful NDN, and keys no default registry installs.
DROP_POOL = [1, 2, 3, 4, 5, 6, 500, 9999]


def make_state():
    state = NodeState(node_id="bump")
    state.fib_v4.insert(0x0A000000, 8, 2)
    state.fib_v4.insert(0, 0, 1)
    return state


mutation_strategy = st.builds(
    RegistryMutation,
    drop_keys=st.lists(
        st.sampled_from(DROP_POOL), max_size=3, unique=True
    ).map(tuple),
    restore_defaults=st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(
    addresses=st.lists(
        st.integers(min_value=0, max_value=2**32 - 1),
        min_size=1,
        max_size=6,
        unique=True,
    ),
    mutation=mutation_strategy,
)
def test_post_bump_kernel_reuse_is_impossible(addresses, mutation):
    processor = RouterProcessor(make_state())
    specializer = ColumnarSpecializer(processor)
    packets = [
        build_ipv4_packet(dst, 0xC0A80001).encode() for dst in addresses
    ]

    # Warm: compile kernels and prove they are reused while the
    # generation stands still.  Holding the kernel objects themselves
    # (not ids) keeps them alive, so identity checks below cannot be
    # fooled by the allocator recycling a freed kernel's address.
    specializer.process_batch(packets)
    warm_kernels = {
        key: kernel
        for key, kernel in specializer._kernels.items()
        if kernel is not None
    }
    assume(warm_kernels)
    specializer.process_batch(packets)
    for key, kernel in warm_kernels.items():
        assert specializer._kernels.get(key) is kernel, (
            "kernels must be stable within a generation"
        )

    version_before = processor.registry.version
    mutation.apply(processor.registry)
    assume(processor.registry.version != version_before)

    invalidations_before = specializer.stats.invalidations
    results = specializer.process_batch(packets)

    # The bump flushed the cache: every kernel in use afterwards is a
    # fresh object, never one compiled under the old generation.
    assert specializer.stats.invalidations == invalidations_before + 1
    for key, kernel in specializer._kernels.items():
        if kernel is not None:
            assert kernel is not warm_kernels.get(key), (
                "kernel survived a generation bump"
            )

    # And the fresh kernels agree with a scalar processor built
    # directly in the post-mutation configuration.
    oracle = RouterProcessor(make_state(), registry=processor.registry)
    expected = oracle.process_batch(packets)
    for ref, got in zip(expected, results):
        assert ref.decision == got.decision
        assert ref.ports == got.ports
        assert ref.cycles == got.cycles
