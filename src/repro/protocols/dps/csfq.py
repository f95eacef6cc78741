"""Core-Stateless Fair Queueing (Stoica & Zhang, SIGCOMM '99), simplified.

Two halves:

- :class:`EdgeRateEstimator` -- the *stateful* edge: exponential
  averaging of each flow's arrival rate, stamped into the packet as a
  32-bit label;
- :class:`CsfqCore` -- the *stateless* core: estimates the aggregate
  arrival/forwarded rates and a fair share ``alpha``, then drops each
  packet with probability ``max(0, 1 - alpha / label)``.

The label rides in the DIP FN locations as a fixed-point bytes/second
value (:func:`encode_rate_label`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import HeaderValueError

RATE_LABEL_BITS = 32
_RATE_SCALE = 16.0  # fixed-point: 1/16 byte/s resolution
_MAX_LABEL = (1 << RATE_LABEL_BITS) - 1


def encode_rate_label(rate_bps: float) -> int:
    """Encode a bytes/second rate as the 32-bit header label."""
    if rate_bps < 0:
        raise HeaderValueError("rate label cannot be negative")
    return min(_MAX_LABEL, int(rate_bps * _RATE_SCALE))


def decode_rate_label(label: int) -> float:
    """Inverse of :func:`encode_rate_label`."""
    if not 0 <= label <= _MAX_LABEL:
        raise HeaderValueError("rate label out of range")
    return label / _RATE_SCALE


@dataclass
class _FlowState:
    rate: float = 0.0
    last_arrival: float = 0.0


@dataclass
class EdgeRateEstimator:
    """Per-flow exponential rate averaging at the network edge.

    ``K`` is the averaging window in seconds (the paper's constant):
    on each arrival of ``size`` bytes after gap ``T``, the estimate
    becomes ``(1 - e^(-T/K)) * size/T + e^(-T/K) * old``.
    """

    window: float = 0.1
    _flows: Dict[int, _FlowState] = field(default_factory=dict)

    def observe(self, flow_id: int, size: int, now: float) -> float:
        """Record one arrival; returns the updated rate estimate."""
        state = self._flows.get(flow_id)
        if state is None:
            state = _FlowState(rate=0.0, last_arrival=now)
            self._flows[flow_id] = state
            # First packet: seed with the burst-free instantaneous view.
            state.rate = size / self.window
            return state.rate
        gap = max(1e-9, now - state.last_arrival)
        state.last_arrival = now
        weight = math.exp(-gap / self.window)
        state.rate = (1.0 - weight) * (size / gap) + weight * state.rate
        return state.rate

    def rate_of(self, flow_id: int) -> float:
        """Current estimate (0.0 for unseen flows)."""
        state = self._flows.get(flow_id)
        return state.rate if state else 0.0


@dataclass
class CsfqCore:
    """A core router's fair-share estimator and prob-drop stage.

    Parameters
    ----------
    capacity:
        Output link capacity in bytes/second.
    window:
        Exponential-averaging window for the aggregate estimates.
    deterministic:
        When True, dropping uses an error-diffusion accumulator per
        label value instead of random numbers, keeping simulations and
        tests reproducible while preserving long-run drop fractions.
    """

    capacity: float
    window: float = 0.1
    deterministic: bool = True
    alpha: float = 0.0
    arrival_rate: float = 0.0
    forwarded_rate: float = 0.0
    packets_seen: int = 0
    packets_dropped: int = 0
    _last_arrival: float = field(default=0.0, repr=False)
    _max_label_rate: float = field(default=0.0, repr=False)
    _drop_accumulator: Dict[int, float] = field(default_factory=dict, repr=False)

    def _update_rate(self, previous: float, size: int, gap: float) -> float:
        weight = math.exp(-max(1e-9, gap) / self.window)
        return (1.0 - weight) * (size / max(1e-9, gap)) + weight * previous

    def process(self, label: int, size: int, now: float) -> bool:
        """Process one packet; returns True to forward, False to drop."""
        rate = decode_rate_label(label)
        gap = now - self._last_arrival if self.packets_seen else self.window
        self._last_arrival = now
        self.packets_seen += 1
        self.arrival_rate = self._update_rate(self.arrival_rate, size, gap)
        self._max_label_rate = max(self._max_label_rate, rate)

        # Fair-share estimation (simplified CSFQ): uncongested links
        # never drop and alpha tracks the largest label; congested
        # links scale alpha so the forwarded rate converges to capacity.
        if self.arrival_rate <= self.capacity:
            self.alpha = self._max_label_rate
            drop_probability = 0.0
        else:
            if self.alpha <= 0.0 or self.forwarded_rate <= 0.0:
                self.alpha = self.capacity
            else:
                self.alpha = self.alpha * self.capacity / self.forwarded_rate
            drop_probability = (
                max(0.0, 1.0 - self.alpha / rate) if rate > 0 else 0.0
            )

        forward = not self._should_drop(label, drop_probability)
        if forward:
            self.forwarded_rate = self._update_rate(
                self.forwarded_rate, size, gap
            )
        else:
            self.packets_dropped += 1
            # The forwarded-rate estimate still decays on drops.
            self.forwarded_rate = self._update_rate(
                self.forwarded_rate, 0, gap
            )
        return forward

    def _should_drop(self, label: int, probability: float) -> bool:
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        if not self.deterministic:
            import random

            return random.random() < probability
        accumulated = self._drop_accumulator.get(label, 0.0) + probability
        if accumulated >= 1.0:
            self._drop_accumulator[label] = accumulated - 1.0
            return True
        self._drop_accumulator[label] = accumulated
        return False
