"""Deterministic attack workloads and goodput-under-attack harnesses.

The paper's §5 defenses are unit-tested elsewhere; this module makes
the attack surface measurable: a seedable family of adversarial wire
streams, blended with legit traffic at a swept attack fraction, driven
through the sharded engine (optionally behind
:class:`repro.resilience.mitigation.MitigatedEngine`) and through the
:mod:`repro.serve` core's admission path.

Attack families (every packet is raw wire bytes, so the full decode /
quarantine surface is exercised):

- ``poison`` -- content-poisoning flood: NDN data packets answering
  *real* catalog names with bogus payloads and forged ``F_pass``
  records (unknown labels or spliced tags).  The engine's ``F_pass``
  walk drops them; the mitigation gate's verification sampler
  quarantines them before they cost a walk.
- ``limit`` -- processing-limit exhaustion: the PR 5 fuzzer's
  limit-violating chains (:func:`repro.conformance.fuzzer.
  limit_violating_wire`) at engine scale, surfacing as ERROR outcomes
  (or degrade verdicts once the circuit breaker trips).
- ``spoof`` -- spoofed-flow DDoS: IPv4 packets with high-entropy
  unrouted destinations.  Every packet is a fresh CRC-32 flow key,
  defeating the flow cache (cold walks + eviction churn) and, behind
  the gate, exhausting the new-flow admission bucket instead of
  allocating per-source state.

Everything is deterministic in ``(seed, fraction, counts)``: named rng
streams, logical clocks, no wall-time in any recorded number -- which
is what lets ``repro paper ATTACK`` regenerate ``results/ATTACK.txt``
and ``results/ATTACK-SERVE.txt`` byte-identically.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import random
from typing import Dict, List, Optional, Tuple

from repro.conformance.fuzzer import limit_violating_wire
from repro.core.operations.base import Decision
from repro.core.state import NodeState
from repro.engine import EngineConfig, EngineReport, ForwardingEngine
from repro.realize.ip import build_ipv4_packet
from repro.realize.ndn import build_data_header, build_interest_packet
from repro.core.packet import DipPacket
from repro.core.operations.passport import passport_tag
from repro.resilience.mitigation import (
    MitigatedEngine,
    MitigationConfig,
    QUARANTINED,
    RATE_LIMITED,
)
from repro.serve.state import LOCAL_EVERY, serve_content_state_factory

ATTACK_FAMILIES: Tuple[str, ...] = ("poison", "limit", "spoof")
LEGIT = "legit"

#: The sweep's attack fractions and its fixed scale.
FRACTIONS: Tuple[float, ...] = (0.0, 0.1, 0.3, 0.5, 0.8)
ENGINE_PACKETS = 2_000
SERVE_ROUNDS = 30
#: The serve arm's capacity model: legit arrivals and flushed packets
#: per round.
SERVE_LEGIT_PER_ROUND = 48
SERVE_BATCH_MAX = 56

#: Legit IPv4 routes live under 10.0.0.0/16 (one /24 per index);
#: spoofed destinations live under 192.0.0.0/4, guaranteed unrouted.
_ROUTE_BASE = 0x0A000000
_SPOOF_BASE = 0xC0000000
#: Legit IPv4 sources: ``_SOURCES_PER_ROUTE`` hosts per route under
#: 172.16.0.0/12.
_SOURCE_BASE = 0xAC100000
_SOURCES_PER_ROUTE = 4
_ZIPF_SKEW = 1.1
#: Sources (labels) whose passport keys the node trusts.
_LABEL_COUNT = 4


def _rng(family: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"attack:{family}:{seed}:{stream}")


def passport_material(seed: int) -> List[Tuple[bytes, bytes]]:
    """The trusted (label, key) pairs, shared by state and builders."""
    pairs = []
    for index in range(_LABEL_COUNT):
        label = hashlib.sha256(
            f"attack:label:{seed}:{index}".encode()
        ).digest()[:16]
        key = hashlib.sha256(
            f"attack:key:{seed}:{index}".encode()
        ).digest()[:16]
        pairs.append((label, key))
    return pairs


def attack_state_factory(
    seed: int = 7,
    content_count: int = 256,
    route_count: int = 256,
    cs_capacity: int = 512,
    pit_capacity: int = 4096,
) -> NodeState:
    """One shard's state for the attack harness (module-level: picklable).

    The serve catalog (NDN digest FIB + bounded PIT/CS) plus an IPv4
    FIB covering ``route_count`` /24s under 10.0/16, with ``F_pass``
    enabled and the trusted labels registered -- so legit traffic
    forwards, poisoned data fails verification, and spoofed
    destinations miss every route.
    """
    state = serve_content_state_factory(
        content_count=content_count,
        seed=seed,
        cs_capacity=cs_capacity,
        pit_capacity=pit_capacity,
    )
    for index in range(route_count):
        prefix = _ROUTE_BASE | (index << 8)
        state.fib_v4.insert(prefix, 24, 1 + index % 8)
    state.passport_enabled = True
    for label, key in passport_material(seed):
        state.passport_keys[label] = key
    return state


def _zipf_ranks(rng: random.Random, population: int, count: int) -> List[int]:
    """``count`` Zipf-skewed ranks in ``range(population)``."""
    weights = [1.0 / (rank + 1) ** _ZIPF_SKEW for rank in range(population)]
    total = sum(weights)
    cumulative = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc / total)
    return [
        bisect.bisect_left(cumulative, rng.random()) for _ in range(count)
    ]


def _catalog_digests(seed: int, content_count: int) -> List[int]:
    from repro.protocols.ndn.names import Name

    return [
        Name.parse(f"/serve/s{seed}/c{index}").digest32()
        for index in range(content_count)
    ]


def legit_wires(
    seed: int,
    count: int,
    stream: str = "legit",
    route_count: int = 256,
    content_count: int = 256,
) -> List[bytes]:
    """Legit blend: Zipf IPv4 forwarding, NDN interests, and
    interest->data pairs whose data carries a *valid* passport.

    Every packet's intended verdict is FORWARD or DELIVER, so legit
    goodput is simply the fraction of these achieving it.
    """
    rng = _rng(LEGIT, seed, f"wires:{stream}")
    digests = _catalog_digests(seed, content_count)
    ranks = _zipf_ranks(rng, route_count, count)
    material = passport_material(seed)
    wires: List[bytes] = []
    # Interest->data pairs draw each digest at most once and skip the
    # producer-local ones: a digest that is local or already answered
    # (cached, since capacity >= catalog and the logical clock never
    # reaches the TTL) would make the interest DELIVER without a PIT
    # entry -- and the paired data unsolicited.  Under a poison blend
    # the attacker can still consume the PIT entry first; that loss is
    # the attack effect being measured.
    pending_digest: Optional[int] = None
    fresh = [
        digest
        for index, digest in enumerate(digests)
        if index % LOCAL_EVERY != 0
    ]
    for i in range(count):
        kind = i % 8
        if kind == 3:
            # Catalog interest: FIB hit (FORWARD), producer-local or
            # already-cached (DELIVER).
            digest = digests[rng.randrange(len(digests))]
            packet = build_interest_packet(digest)
        elif kind == 6 and fresh:
            # Interest whose data follows at kind 7 (PIT hit).
            pick = rng.randrange(len(fresh))
            fresh[pick], fresh[-1] = fresh[-1], fresh[pick]
            pending_digest = fresh.pop()
            packet = build_interest_packet(pending_digest)
        elif kind == 7 and pending_digest is not None:
            label, key = material[rng.randrange(len(material))]
            content = bytes(
                rng.randrange(256) for _ in range(rng.randrange(8, 24))
            )
            tag = passport_tag(key, label, content)
            packet = DipPacket(
                header=build_data_header(
                    pending_digest,
                    with_passport=True,
                    label=label,
                    tag=tag,
                ),
                payload=content,
            )
            pending_digest = None
        else:
            # Zipf-skewed IPv4 forwarding over the routed /24s: the
            # pure MATCH_32 walk, i.e. the flow-cacheable population a
            # spoof flood tries to evict.
            route = ranks[i]
            dst = _ROUTE_BASE | (route << 8) | rng.randrange(256)
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(16))
            )
            # A bounded source population per route (the same draw,
            # folded) so flows repeat and the flow cache has legit
            # entries for a spoof flood to evict.
            source = (
                _SOURCE_BASE
                | (route << 8)
                | rng.getrandbits(32) % _SOURCES_PER_ROUTE
            )
            packet = build_ipv4_packet(dst, source, payload)
        wires.append(packet.encode())
    return wires


def attack_wires(
    family: str,
    seed: int,
    count: int,
    stream: str = "attack",
    content_count: int = 256,
) -> List[bytes]:
    """``count`` wire packets of one attack family (see module docs)."""
    rng = _rng(family, seed, f"wires:{stream}")
    if family == "limit":
        return [limit_violating_wire(rng) for _ in range(count)]
    if family == "spoof":
        wires = []
        for _ in range(count):
            dst = _SPOOF_BASE | rng.getrandbits(26)
            payload = bytes(
                rng.randrange(256) for _ in range(rng.randrange(12))
            )
            wires.append(
                build_ipv4_packet(dst, rng.getrandbits(32), payload).encode()
            )
        return wires
    if family == "poison":
        digests = _catalog_digests(seed, content_count)
        material = passport_material(seed)
        wires = []
        for index in range(count):
            digest = digests[rng.randrange(len(digests))]
            bogus = bytes(
                rng.randrange(256) for _ in range(rng.randrange(8, 24))
            )
            if index % 2 == 0:
                # Unknown source label.
                label = rng.getrandbits(128).to_bytes(16, "big")
                tag = rng.getrandbits(128).to_bytes(16, "big")
            else:
                # Trusted label spliced onto bogus content: the tag
                # cannot match, F_pass catches the splice.
                label, _key = material[rng.randrange(len(material))]
                tag = rng.getrandbits(128).to_bytes(16, "big")
            wires.append(
                DipPacket(
                    header=build_data_header(
                        digest, with_passport=True, label=label, tag=tag
                    ),
                    payload=bogus,
                ).encode()
            )
        return wires
    raise ValueError(f"unknown attack family {family!r}")


def make_attack_blend(
    total: int,
    fraction: float,
    seed: int = 0,
    stream: str = "blend",
    content_count: int = 256,
) -> Tuple[List[bytes], List[str]]:
    """A ``total``-packet stream, ``fraction`` of it attack traffic.

    Attack packets split evenly across the families and are paced into
    the legit stream by error diffusion (Bresenham), which keeps the
    mix stationary *and* preserves legit ordering (interest before its
    data).  Returns ``(wires, labels)`` with ``labels[i]`` one of
    ``"legit"`` / ``"poison"`` / ``"limit"`` / ``"spoof"``.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("attack fraction must be in [0, 1)")
    attack_total = int(round(total * fraction))
    legit_total = total - attack_total
    legit = legit_wires(
        seed, legit_total, stream=stream, content_count=content_count
    )
    per_family = {
        family: attack_total // len(ATTACK_FAMILIES) for family in ATTACK_FAMILIES
    }
    for index in range(attack_total % len(ATTACK_FAMILIES)):
        per_family[ATTACK_FAMILIES[index]] += 1
    attack: List[Tuple[str, bytes]] = []
    streams = {
        family: attack_wires(
            family, seed, per_family[family], stream=stream,
            content_count=content_count,
        )
        for family in ATTACK_FAMILIES
    }
    cursors = {family: 0 for family in ATTACK_FAMILIES}
    for index in range(attack_total):
        family = ATTACK_FAMILIES[index % len(ATTACK_FAMILIES)]
        if cursors[family] >= per_family[family]:
            family = max(
                ATTACK_FAMILIES, key=lambda f: per_family[f] - cursors[f]
            )
        attack.append((family, streams[family][cursors[family]]))
        cursors[family] += 1
    wires: List[bytes] = []
    labels: List[str] = []
    error = 0.0
    li = ai = 0
    for _ in range(total):
        error += fraction
        if error >= 1.0 and ai < len(attack):
            error -= 1.0
            family, wire = attack[ai]
            ai += 1
            wires.append(wire)
            labels.append(family)
        elif li < len(legit):
            wires.append(legit[li])
            labels.append(LEGIT)
            li += 1
        elif ai < len(attack):
            family, wire = attack[ai]
            ai += 1
            wires.append(wire)
            labels.append(family)
    return wires, labels


_GOOD = (Decision.FORWARD, Decision.DELIVER)
#: Engine-arm packets per ``run()`` call.
_CHUNK = 2048


def run_attack_engine(
    fraction: float,
    packets: int,
    seed: int = 0,
    mitigation: Optional[MitigationConfig] = None,
) -> Dict[str, object]:
    """One engine-scale point: blend -> engine -> deterministic tallies.

    Goodput is legit FORWARD/DELIVER over legit offered; the flow
    cache's hit rate / evictions / peak size measure poisoning
    resistance; every number recorded is wall-time-free so the sweep
    ledger regenerates byte-identically.
    """
    engine = ForwardingEngine(
        functools.partial(attack_state_factory, seed=seed),
        config=EngineConfig(
            num_shards=4,
            batch_size=256,
            ring_capacity=16384,
            flow_cache=True,
        ),
    )
    runner = (
        MitigatedEngine(engine, mitigation) if mitigation is not None
        else engine
    )
    wires, labels = make_attack_blend(packets, fraction, seed)
    merged = EngineReport.empty()
    tally = {
        "legit_offered": 0,
        "legit_good": 0,
        "legit_refused": 0,
        "attack_offered": 0,
        "attack_rate_limited": 0,
        "attack_quarantined_gate": 0,
        "attack_error": 0,
        "attack_dropped": 0,
        "lost": 0,
    }
    runner.start()
    try:
        for start in range(0, len(wires), _CHUNK):
            part = wires[start:start + _CHUNK]
            part_labels = labels[start:start + _CHUNK]
            report = runner.run(part, now=0.0)
            for label, outcome in zip(part_labels, report.outcomes):
                legit = label == LEGIT
                if legit:
                    tally["legit_offered"] += 1
                else:
                    tally["attack_offered"] += 1
                if outcome is None:
                    tally["lost"] += 1
                    continue
                if legit:
                    if outcome.decision in _GOOD:
                        tally["legit_good"] += 1
                    elif outcome.reason in (RATE_LIMITED, QUARANTINED):
                        tally["legit_refused"] += 1
                    continue
                if outcome.reason == RATE_LIMITED:
                    tally["attack_rate_limited"] += 1
                elif outcome.reason == QUARANTINED:
                    tally["attack_quarantined_gate"] += 1
                elif outcome.decision is Decision.ERROR:
                    tally["attack_error"] += 1
                else:
                    tally["attack_dropped"] += 1
            merged = merged.merge(report)
    finally:
        runner.close()
    cache = merged.flow_cache
    lookups = (cache.hits + cache.misses) if cache is not None else 0
    point: Dict[str, object] = {
        "fraction": fraction,
        "packets": packets,
        **tally,
        "goodput": (
            tally["legit_good"] / tally["legit_offered"]
            if tally["legit_offered"]
            else 0.0
        ),
        "quarantine_rate": (
            (tally["attack_quarantined_gate"] + tally["attack_error"])
            / tally["attack_offered"]
            if tally["attack_offered"]
            else 0.0
        ),
        "degraded": merged.degraded,
        "rate_limited": merged.packets_rate_limited,
        "quarantined": merged.packets_quarantined,
        "unaccounted": merged.packets_unaccounted,
        "flow_cache": (
            None
            if cache is None
            else {
                "hits": cache.hits,
                "misses": cache.misses,
                "evictions": cache.evictions,
                "peak_size": cache.peak_size,
                "hit_rate": cache.hits / lookups if lookups else 0.0,
            }
        ),
    }
    if mitigation is not None:
        point["mitigation"] = runner.stats().to_dict()
    return point


def run_attack_serve(
    fraction: float,
    seed: int = 0,
    rounds: int = 40,
    mitigated: bool = False,
) -> Dict[str, object]:
    """One serve-capacity point: flood the admission path, measure
    legit goodput end to end (queued -> engine -> reply decision).

    The capacity model is fixed legit load per round plus attack
    overload ``legit * f / (1 - f)``, one engine flush per round
    (:data:`SERVE_BATCH_MAX` is the server's per-round capacity):
    unmitigated, the flood owns the queue and sheds legit arrivals;
    mitigated, the gate refuses attack packets *before* they take a
    queue slot.  The capacity (56 vs 48 legit/round) leaves ~17% headroom:
    clean traffic is never shed, while a 30% attack fraction already
    overloads the round and separates the mitigated curve.
    """
    from repro.serve.config import ServeConfig
    from repro.serve.core import ServeCore

    attack_per_round = (
        int(round(SERVE_LEGIT_PER_ROUND * fraction / (1.0 - fraction)))
        if fraction > 0
        else 0
    )
    config = ServeConfig(
        shards=2,
        batch_max=SERVE_BATCH_MAX,
        max_inflight=256,
        content_count=256,
        seed=seed,
        mitigation=mitigated,
    )
    core = ServeCore(
        config,
        state_factory=functools.partial(attack_state_factory, seed=seed),
    )
    total_legit = rounds * SERVE_LEGIT_PER_ROUND
    total_attack = rounds * attack_per_round
    legit = legit_wires(seed, total_legit, stream="serve")
    streams = {
        family: attack_wires(
            family,
            seed,
            total_attack // len(ATTACK_FAMILIES) + len(ATTACK_FAMILIES),
            stream="serve",
        )
        for family in ATTACK_FAMILIES
    }
    cursors = {family: 0 for family in ATTACK_FAMILIES}
    submitted = {
        LEGIT: 0, "shed_legit": 0, "refused_legit": 0,
        "attack": 0, "shed_attack": 0, "rate_limited": 0, "quarantined": 0,
    }
    collected: List[Tuple[object, object]] = []
    legit_cursor = 0
    attack_index = 0
    try:
        for round_index in range(rounds):
            arrivals: List[Tuple[str, bytes]] = []
            local_fraction = (
                attack_per_round / (attack_per_round + SERVE_LEGIT_PER_ROUND)
                if attack_per_round
                else 0.0
            )
            error = 0.0
            li = ai = 0
            while li < SERVE_LEGIT_PER_ROUND or ai < attack_per_round:
                error += local_fraction
                if (error >= 1.0 and ai < attack_per_round) or (
                    li >= SERVE_LEGIT_PER_ROUND
                ):
                    error -= 1.0
                    family = ATTACK_FAMILIES[
                        attack_index % len(ATTACK_FAMILIES)
                    ]
                    attack_index += 1
                    wire = streams[family][cursors[family]]
                    cursors[family] += 1
                    arrivals.append((family, wire))
                    ai += 1
                else:
                    arrivals.append((LEGIT, legit[legit_cursor]))
                    legit_cursor += 1
                    li += 1
            for label, wire in arrivals:
                status = core.submit_ex(wire, label)
                if label == LEGIT:
                    submitted[LEGIT] += 1
                    if status == "shed":
                        submitted["shed_legit"] += 1
                    elif status != "queued":
                        submitted["refused_legit"] += 1
                else:
                    submitted["attack"] += 1
                    if status == "shed":
                        submitted["shed_attack"] += 1
                    elif status == "rate-limited":
                        submitted["rate_limited"] += 1
                    elif status == "quarantined":
                        submitted["quarantined"] += 1
            core.flush(now=round_index * 0.005, collect=collected)
        core.drain(now=rounds * 0.005, collect=collected)
        summary = core.summary()
    finally:
        core.close()
    legit_good = sum(
        1
        for label, outcome in collected
        if label == LEGIT
        and outcome is not None
        and outcome.decision in _GOOD
    )
    legit_offered = submitted[LEGIT]
    return {
        "fraction": fraction,
        "rounds": rounds,
        "legit_per_round": SERVE_LEGIT_PER_ROUND,
        "attack_per_round": attack_per_round,
        "legit_offered": legit_offered,
        "legit_good": legit_good,
        "goodput": legit_good / legit_offered if legit_offered else 0.0,
        "legit_shed": submitted["shed_legit"],
        "legit_refused": submitted["refused_legit"],
        "attack_offered": submitted["attack"],
        "attack_shed": submitted["shed_attack"],
        "attack_rate_limited": submitted["rate_limited"],
        "attack_quarantined": submitted["quarantined"],
        "packets_shed": summary["shed"],
        "rate_limited": summary["rate_limited"],
        "quarantined": summary["quarantined"],
        "unaccounted": summary["unaccounted"],
        "mitigated": mitigated,
    }


def run_attack_sweep() -> Dict[str, Dict[str, List[Dict[str, object]]]]:
    """The A/B sweep at its one fixed scale: unmitigated vs mitigated,
    engine arm (:data:`ENGINE_PACKETS` per point) and serve arm
    (:data:`SERVE_ROUNDS` rounds per point), at every fraction in
    :data:`FRACTIONS`.  Deterministic; ``repro paper ATTACK`` renders
    and checks it."""
    sweep: Dict[str, Dict[str, List[Dict[str, object]]]] = {
        arm: {"unmitigated": [], "mitigated": []}
        for arm in ("engine", "serve")
    }
    engine, serve = sweep["engine"], sweep["serve"]
    for fraction in FRACTIONS:
        engine["unmitigated"].append(
            run_attack_engine(fraction, ENGINE_PACKETS)
        )
        engine["mitigated"].append(
            run_attack_engine(
                fraction, ENGINE_PACKETS, mitigation=MitigationConfig()
            )
        )
        serve["unmitigated"].append(
            run_attack_serve(fraction, rounds=SERVE_ROUNDS)
        )
        serve["mitigated"].append(
            run_attack_serve(fraction, rounds=SERVE_ROUNDS, mitigated=True)
        )
    return sweep
