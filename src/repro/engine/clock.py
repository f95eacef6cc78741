"""The one clock seam every engine caller stamps batches through.

Three callers used to hardcode their own notion of ``now``: the
conformance matrix pinned 0.0 (timeless), the serving daemon stamped
``time.monotonic()`` per flush, and the co-simulation fabric needs
virtual time.  All three are now zero-argument callables injected into
:class:`~repro.engine.engine.ForwardingEngine` as ``clock=``; a
``run()`` without an explicit ``now`` reads the clock, so PIT
lifetimes and content-store TTLs age under whichever time base the
deployment actually runs on.
"""

from __future__ import annotations

import time

from repro.errors import EngineError


def timeless_clock() -> float:
    """The conformance default: every batch walks at t=0."""
    return 0.0


#: Wall time for long-lived daemons (monotonic, never steps backward).
wall_clock = time.monotonic


class ManualClock:
    """A settable clock for virtual-time drivers (the fabric).

    Monotone by construction: rewinding raises, because an engine that
    saw a later timestamp may already have expired state.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def __call__(self) -> float:
        return self._now

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, when: float) -> None:
        if when < self._now:
            raise EngineError(
                f"clock cannot rewind from {self._now!r} to {when!r}"
            )
        self._now = when
