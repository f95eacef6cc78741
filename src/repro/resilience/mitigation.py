"""Attack mitigation in front of the engine (DESIGN.md 3.14).

The paper's §5 defenses -- per-FN processing limits and the ``F_pass``
source-label check -- act *inside* Algorithm 1, per packet.  Under
volumetric attack that is too late: every bogus packet still pays a
ring slot and a full walk before it is refused.  This module is the
admission-side complement, a mitigation gate that sits where a
hardware ingress policer would (P4's match-action framing: express the
policy as table lookups over the flow key, not ad-hoc code):

- **Per-source token buckets** keyed on the PR 1 flow-dispatch hash
  (:func:`repro.engine.dispatch.FlowDispatcher.key_of`): a source
  exceeding its rate share is refused with a ``rate-limited`` verdict
  before it reaches a ring.
- **New-flow admission bucket**: *creating* a per-source bucket costs
  one token from a shared bucket.  A spoofed-flow flood (every packet
  a fresh CRC-32 key) exhausts the admission bucket and is refused
  without ever allocating state -- bounded memory against unbounded
  key entropy, the same discipline the flow cache's LRU bound applies.
- **``F_pass`` verification sampling**: every ``sample_every``-th
  admitted packet carrying a router ``F_pass`` FN has its label record
  verified out-of-band (same MAC the operation module checks).  A
  failure quarantines the packet and escalates to every-packet
  verification until a clean window passes -- the paper's "enable the
  check dynamically, when an attack is detected", made incremental.
- **Quarantine-rate circuit breaker**: a windowed bad-verdict rate
  above the trip threshold flips the node into a PR 4 degrade policy
  (via :meth:`ForwardingEngine.set_degrade`); dropping back below the
  recovery threshold restores the previous policy.

Determinism contract: the gate runs on a *logical clock* -- one tick
per offered packet -- so refills, sampling and windows depend only on
the packet sequence, never on wall time.  The same stream always
produces the same verdicts, which is what lets the BENCH ledger
regenerate byte-identically and the conformance suite assert
decision-identity on legit traffic.

Conservation: every packet the gate refuses is accounted in
:class:`~repro.engine.engine.EngineReport` as ``packets_rate_limited``
or ``packets_quarantined``, extending the PR 4 law (see
``EngineReport.packets_unaccounted``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.core.operations.base import Decision
from repro.core.operations.passport import LABEL_BITS, TAG_BITS, passport_tag
from repro.core.packet import DipPacket
from repro.engine.dispatch import FlowDispatcher
from repro.errors import SimulationError
from repro.telemetry.metrics import MetricsSnapshot
from repro.util.bitview import BitView

#: Gate verdicts.  ``ADMIT`` hands the packet to the engine; the other
#: two refuse it in front of the rings (and are the ``reason`` strings
#: of the spliced DROP outcomes, extending the failure taxonomy).
ADMIT = "admit"
RATE_LIMITED = "rate-limited"
QUARANTINED = "quarantined"
VERDICTS = (ADMIT, RATE_LIMITED, QUARANTINED)

_PASS_KEY = 12  # OperationKey.PASS
_PASS_RECORD_BITS = LABEL_BITS + TAG_BITS


@dataclass(frozen=True)
class MitigationConfig:
    """Gate shape: bucket rates, sampling cadence, breaker thresholds.

    All rates are in tokens per *gate tick* (one tick per offered
    packet), so a rate is directly a traffic share: ``per_flow_rate =
    0.25`` admits a source up to a quarter of the total offered load
    (after its ``per_flow_burst`` is spent).  ``new_flow_rate`` bounds
    how fast previously unseen flow keys may appear; legit traffic
    reuses a stable key population, a spoofed flood does not.

    ``sample_every = 0`` disables ``F_pass`` sampling; ``breaker_window
    = 0`` disables the circuit breaker.
    """

    per_flow_rate: float = 0.25
    per_flow_burst: float = 256.0
    new_flow_rate: float = 1.0
    new_flow_burst: float = 512.0
    max_buckets: int = 4096
    sample_every: int = 16
    escalation_window: int = 256
    breaker_window: int = 512
    breaker_trip_rate: float = 0.25
    breaker_recover_rate: float = 0.05
    breaker_policy: str = "drop"

    def __post_init__(self) -> None:
        if self.per_flow_rate <= 0:
            raise SimulationError("per_flow_rate must be positive")
        if self.per_flow_burst < 1:
            raise SimulationError("per_flow_burst must be >= 1")
        if self.new_flow_rate <= 0:
            raise SimulationError("new_flow_rate must be positive")
        if self.new_flow_burst < 1:
            raise SimulationError("new_flow_burst must be >= 1")
        if self.max_buckets <= 0:
            raise SimulationError("max_buckets must be positive")
        if self.sample_every < 0:
            raise SimulationError("sample_every must be >= 0")
        if self.escalation_window <= 0:
            raise SimulationError("escalation_window must be positive")
        if self.breaker_window < 0:
            raise SimulationError("breaker_window must be >= 0")
        if not 0.0 < self.breaker_trip_rate <= 1.0:
            raise SimulationError("breaker_trip_rate must be in (0, 1]")
        if not 0.0 <= self.breaker_recover_rate < self.breaker_trip_rate:
            raise SimulationError(
                "breaker_recover_rate must be in [0, breaker_trip_rate)"
            )
        if self.breaker_policy not in ("drop", "pass-to-host", "best-effort-ip"):
            raise SimulationError(
                f"unknown breaker policy {self.breaker_policy!r}"
            )


@dataclass(frozen=True)
class MitigationStats:
    """Gate counters, one snapshot per :meth:`MitigationGate.stats`.

    ``active_flows``, ``breaker_tripped`` and ``escalated`` are the
    gate's live state at snapshot time; every other field counts since
    the gate was built.
    """

    offered: int = 0
    admitted: int = 0
    rate_limited_flow: int = 0
    rate_limited_new_flow: int = 0
    quarantined: int = 0
    pass_sampled: int = 0
    pass_failures: int = 0
    bucket_evictions: int = 0
    breaker_trips: int = 0
    breaker_recoveries: int = 0
    active_flows: int = 0
    breaker_tripped: int = 0
    escalated: int = 0

    @property
    def rate_limited(self) -> int:
        return self.rate_limited_flow + self.rate_limited_new_flow

    def to_dict(self) -> Dict[str, int]:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["rate_limited"] = self.rate_limited
        return data

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={
                "mitigation_offered_total": self.offered,
                "mitigation_admitted_total": self.admitted,
                'mitigation_rate_limited_total{kind="flow"}': (
                    self.rate_limited_flow
                ),
                'mitigation_rate_limited_total{kind="new-flow"}': (
                    self.rate_limited_new_flow
                ),
                "mitigation_quarantined_total": self.quarantined,
                "mitigation_pass_sampled_total": self.pass_sampled,
                "mitigation_pass_failures_total": self.pass_failures,
                "mitigation_bucket_evictions_total": self.bucket_evictions,
                "mitigation_breaker_trips_total": self.breaker_trips,
                "mitigation_breaker_recoveries_total": (
                    self.breaker_recoveries
                ),
            },
            gauges={
                "mitigation_active_flows": float(self.active_flows),
                "mitigation_breaker_tripped": float(self.breaker_tripped),
                "mitigation_escalated": float(self.escalated),
            },
        )


class MitigationGate:
    """The admission-side policer (see the module docstring).

    Parameters
    ----------
    config:
        Gate shape; defaults are tuned so legit traffic (a stable flow
        population, no source above a quarter of the load) is never
        refused -- the decision-identity guarantee the conformance
        suite asserts.
    verify_state:
        A :class:`~repro.core.state.NodeState` whose ``passport_keys``
        /``passport_enabled`` drive the out-of-band ``F_pass`` check
        (typically one extra instance from the engine's state factory).
        ``None`` disables verification sampling.

    Not thread-safe on its own; callers (:class:`MitigatedEngine`, the
    serve core) already serialize admission through one lock/thread.
    """

    def __init__(
        self,
        config: Optional[MitigationConfig] = None,
        verify_state=None,
    ) -> None:
        self.config = config if config is not None else MitigationConfig()
        self.verify_state = verify_state
        self._flows = FlowDispatcher(num_shards=1)
        # key -> [tokens, last_refill_tick]; insertion order is the LRU.
        self._buckets: "OrderedDict[bytes, List[float]]" = OrderedDict()
        self._admission = [self.config.new_flow_burst, 0]
        self._tick = 0
        self._pass_seen = 0
        self._escalated_left = 0
        self._window_total = 0
        self._window_bad = 0
        self._tripped = False
        self._transition: Optional[str] = None
        # counters
        self.offered = 0
        self.admitted = 0
        self.rate_limited_flow = 0
        self.rate_limited_new_flow = 0
        self.quarantined = 0
        self.pass_sampled = 0
        self.pass_failures = 0
        self.bucket_evictions = 0
        self.breaker_trips = 0
        self.breaker_recoveries = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(self, wire: Union[DipPacket, bytes, bytearray]) -> str:
        """One packet's verdict: ADMIT / RATE_LIMITED / QUARANTINED."""
        self._tick += 1
        self.offered += 1
        verdict = self._admit_inner(wire)
        if verdict is ADMIT:
            self.admitted += 1
        self._observe_window(bad=verdict is QUARANTINED)
        return verdict

    def _admit_inner(self, wire) -> str:
        config = self.config
        # Verification sampling runs *before* the buckets: a poison
        # data packet shares its flow key with the legit interests for
        # the same content (both hash the name digest), so quarantining
        # it pre-bucket keeps the flood from draining the legit flow's
        # tokens once the sampler has escalated.
        if self._maybe_verify(wire) is QUARANTINED:
            return QUARANTINED
        key = self._flows.key_of(wire)
        bucket = self._buckets.get(key)
        if bucket is None:
            # A previously unseen flow: creating its bucket costs one
            # shared admission token, so high-entropy spoofed keys are
            # refused without allocating anything.
            admission = self._admission
            admission[0] = min(
                config.new_flow_burst,
                admission[0]
                + (self._tick - admission[1]) * config.new_flow_rate,
            )
            admission[1] = self._tick
            if admission[0] < 1.0:
                self.rate_limited_new_flow += 1
                return RATE_LIMITED
            admission[0] -= 1.0
            bucket = [config.per_flow_burst, self._tick]
            self._buckets[key] = bucket
            if len(self._buckets) > config.max_buckets:
                self._buckets.popitem(last=False)
                self.bucket_evictions += 1
        else:
            self._buckets.move_to_end(key)
            bucket[0] = min(
                config.per_flow_burst,
                bucket[0] + (self._tick - bucket[1]) * config.per_flow_rate,
            )
            bucket[1] = self._tick
        if bucket[0] < 1.0:
            self.rate_limited_flow += 1
            return RATE_LIMITED
        bucket[0] -= 1.0
        return ADMIT

    # ------------------------------------------------------------------
    # F_pass verification sampling
    # ------------------------------------------------------------------
    def _maybe_verify(self, wire) -> str:
        state = self.verify_state
        if state is None or not getattr(state, "passport_enabled", False):
            return ADMIT
        config = self.config
        if config.sample_every == 0 and self._escalated_left == 0:
            return ADMIT
        record = self._passport_record(wire)
        if record is None:
            return ADMIT
        self._pass_seen += 1
        due = self._escalated_left > 0 or (
            config.sample_every
            and self._pass_seen % config.sample_every == 0
        )
        if not due:
            return ADMIT
        self.pass_sampled += 1
        label, tag, payload = record
        key = state.passport_keys.get(label)
        if key is None or passport_tag(key, label, payload) != tag:
            self.pass_failures += 1
            self.quarantined += 1
            # Attack detected: verify every F_pass packet until a
            # clean escalation_window has passed.
            self._escalated_left = config.escalation_window
            return QUARANTINED
        if self._escalated_left > 0:
            self._escalated_left -= 1
        return ADMIT

    @staticmethod
    def _passport_record(wire):
        """(label, tag, payload) of the first router F_pass FN, or None.

        Undecodable or malformed-record packets return None: the
        engine's own walk quarantines those, with full accounting.
        """
        try:
            packet = (
                wire
                if isinstance(wire, DipPacket)
                else DipPacket.decode(bytes(wire))
            )
        except Exception:
            return None
        for fn in packet.header.fns:
            if fn.tag or fn.key != _PASS_KEY:
                continue
            if fn.field_len != _PASS_RECORD_BITS:
                return None
            try:
                view = BitView(packet.header.locations)
                label = view.get_bits(fn.field_loc, LABEL_BITS)
                tag = view.get_bits(fn.field_loc + LABEL_BITS, TAG_BITS)
            except Exception:
                return None
            return label, tag, packet.payload
        return None

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _observe_window(self, bad: bool) -> None:
        if self.config.breaker_window == 0:
            return
        self._window_total += 1
        if bad:
            self._window_bad += 1
        if self._window_total < self.config.breaker_window:
            return
        rate = self._window_bad / self._window_total
        if not self._tripped and rate >= self.config.breaker_trip_rate:
            self._tripped = True
            self.breaker_trips += 1
            self._transition = "trip"
        elif self._tripped and rate <= self.config.breaker_recover_rate:
            self._tripped = False
            self.breaker_recoveries += 1
            self._transition = "recover"
        self._window_total = 0
        self._window_bad = 0

    def observe_bad(self, count: int) -> None:
        """Feed engine-side quarantines (ERROR outcomes) into the
        breaker window -- the gate only sees its own verdicts, but a
        poison flood the sampler missed still shows up downstream."""
        if count > 0 and self.config.breaker_window:
            self._window_bad += count

    def observe_outcomes(self, outcomes) -> None:
        """:meth:`observe_bad` for an engine run's outcomes: its ERROR
        verdicts are the batch paths' poison quarantines."""
        self.observe_bad(
            sum(
                1
                for outcome in outcomes
                if outcome is not None and outcome.decision is Decision.ERROR
            )
        )

    def poll_breaker(self) -> Optional[str]:
        """The pending breaker transition ("trip"/"recover"), consumed.

        Callers actuate it (``engine.set_degrade``) on the thread that
        owns the engine; the gate itself never touches the engine.
        """
        transition, self._transition = self._transition, None
        return transition

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> MitigationStats:
        return MitigationStats(
            offered=self.offered,
            admitted=self.admitted,
            rate_limited_flow=self.rate_limited_flow,
            rate_limited_new_flow=self.rate_limited_new_flow,
            quarantined=self.quarantined,
            pass_sampled=self.pass_sampled,
            pass_failures=self.pass_failures,
            bucket_evictions=self.bucket_evictions,
            breaker_trips=self.breaker_trips,
            breaker_recoveries=self.breaker_recoveries,
            active_flows=len(self._buckets),
            breaker_tripped=int(self._tripped),
            escalated=int(self._escalated_left > 0),
        )


class MitigatedEngine:
    """A :class:`ForwardingEngine` behind a :class:`MitigationGate`.

    Drop-in for the engine's ``run``/``start``/``close`` surface: each
    ``run`` gates every packet, runs the survivors through the inner
    engine, splices ``DROP`` outcomes (reason ``"rate-limited"`` /
    ``"quarantined"``) back into input order, and extends the report so
    the conservation law covers the refusals.  Breaker transitions are
    actuated here, on the thread that owns the engine.

    On legit traffic the gate admits everything, so outcomes are
    byte-identical to the bare engine's -- the decision-identity
    property ``tests/conformance/test_mitigation_identity.py`` asserts.
    """

    def __init__(
        self,
        engine,
        config: Optional[MitigationConfig] = None,
        verify_state=None,
    ) -> None:
        self.engine = engine
        if verify_state is None and engine.state_factory is not None:
            verify_state = engine.state_factory()
        self.gate = MitigationGate(config, verify_state=verify_state)
        self._breaker_restore = None

    # lifecycle delegation -------------------------------------------------
    def start(self) -> "MitigatedEngine":
        self.engine.start()
        return self

    def close(self) -> None:
        self.engine.close()

    def __enter__(self) -> "MitigatedEngine":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def config(self):
        return self.engine.config

    @property
    def metrics(self):
        return self.engine.metrics

    @property
    def degrade(self):
        return self.engine.degrade

    # ------------------------------------------------------------------
    def run(
        self,
        packets: Sequence[Union[DipPacket, bytes]],
        now: float = 0.0,
    ) -> EngineReport:
        gate = self.gate
        verdicts = [gate.admit(packet) for packet in packets]
        admitted = [
            packet
            for packet, verdict in zip(packets, verdicts)
            if verdict is ADMIT
        ]
        report = self.engine.run(admitted, now=now)
        # Engine-side quarantines feed the breaker too.
        gate.observe_outcomes(report.outcomes)
        transition = gate.poll_breaker()
        if transition == "trip":
            self._breaker_restore = self.engine.set_degrade(
                gate.config.breaker_policy
            )
        elif transition == "recover":
            self.engine.set_degrade(self._breaker_restore)
            self._breaker_restore = None
        return self._splice(report, verdicts, len(packets))

    @staticmethod
    def _splice(
        report: EngineReport, verdicts: List[str], offered: int
    ) -> EngineReport:
        # Imported here (not at module top) to keep resilience importable
        # from engine.workers without a cycle.
        from repro.engine.engine import PacketOutcome

        rate_limited = sum(1 for v in verdicts if v is RATE_LIMITED)
        quarantined = sum(1 for v in verdicts if v is QUARANTINED)
        if not rate_limited and not quarantined:
            return report
        inner = iter(report.outcomes)
        outcomes: List[Optional[PacketOutcome]] = []
        for verdict in verdicts:
            if verdict is ADMIT:
                outcomes.append(next(inner))
            else:
                outcomes.append(
                    PacketOutcome(Decision.DROP, reason=verdict)
                )
        decisions = dict(report.decisions)
        refused = rate_limited + quarantined
        decisions[Decision.DROP.value] = (
            decisions.get(Decision.DROP.value, 0) + refused
        )
        return replace(
            report,
            packets_offered=offered,
            outcomes=tuple(outcomes),
            decisions=decisions,
            packets_rate_limited=report.packets_rate_limited + rate_limited,
            packets_quarantined=report.packets_quarantined + quarantined,
        )

    def stats(self) -> MitigationStats:
        return self.gate.stats()
