"""Workloads ``serve-fwd`` and ``serve-ndn``: the daemon over loopback UDP.

One daemon lifetime per run: set-up (spawn the child, wait for
``/healthz`` 200, build the load) -> closed-loop warm-up -> five timed
closed-loop slices (capacity, CPU per packet) -> fifteen open-loop
slices at a fixed mean rate below the knee (probe latency) -> SIGINT
and read the final ledger.  The traffic crosses the host's loopback interface, not
a real link.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from statistics import median
import urllib.error
import urllib.request
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.processor import RouterProcessor
from repro.engine.shm import leaked_segments
from repro.realize.ndn import build_data_packet, build_interest_packet
from repro.serve import (
    ServeConfig,
    ServeCore,
    decode_reply,
    encode_reply,
    serve_content_names,
    serve_content_state_factory,
)
from repro.workloads.throughput import (
    dip32_state_factory,
    make_zipf_engine_packets,
)

from layers import (
    SpanTree,
    batches,
    core_layer_rows,
    engine_report_rows,
    walk_core_layers,
)
from loadgen import LoadGenerator
from meter import cpu_seconds, free_port, peak_rss_mib, percentile

HERE = Path(__file__).resolve().parent
WIRES = 8192  # distinct draws the sender cycles through
CLOSED_SLICES = 5
# Many short open-loop slices: a host stall of some tens of milliseconds
# lifts the p98 of the slice it falls in, and the median over slices
# shrugs off a minority of such slices.  0.6 s at 1000 probes/s still
# leaves 12 probes beyond each slice's p98.
OPEN_SLICES = 15
REFUSALS = ("shed", "rate-limited", "quarantined")


def make_wires(kind: str, seed: int) -> List[bytes]:
    """The datagrams one run sends, from the seed alone."""
    if kind == "fwd":
        # 128-byte DIP-32 packets, Zipf s=1.1 over 256 flows, routed by
        # dip32_state_factory(1024, seed): a pure, cacheable walk.
        return make_zipf_engine_packets(
            packet_size=128, packet_count=WIRES, flow_count=256,
            skew=1.1, seed=seed,
        )
    # The daemon's default catalog (512 names), Zipf s=1.1, 70%
    # interests / 30% data: every packet reads and writes PIT or CS.
    rng = random.Random(seed)
    names = serve_content_names()
    weights = [1.0 / rank ** 1.1 for rank in range(1, len(names) + 1)]
    wires = []
    for name in rng.choices(names, weights=weights, k=WIRES):
        if rng.random() < 0.3:
            packet = build_data_packet(name, content=b"serve-data")
        else:
            packet = build_interest_packet(name)
        wires.append(packet.encode())
    return wires


def state_factory_of(kind: str, seed: int) -> Callable:
    """The node state the daemon child serves for ``kind``."""
    if kind == "fwd":
        return functools.partial(dip32_state_factory, 1024, seed)
    # ServeCore's default: its ServeConfig defaults are this function's.
    return serve_content_state_factory


class Daemon:
    """The daemon under test, as a child process on ephemeral ports."""

    def __init__(self, kind: str, seed: int) -> None:
        self.port = free_port(socket.SOCK_DGRAM)
        self.metrics_port = free_port(socket.SOCK_STREAM)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(HERE.parent / "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.process = subprocess.Popen(
            [
                sys.executable, str(HERE / "daemon_child.py"),
                "--port", str(self.port),
                "--metrics-port", str(self.metrics_port),
                "--state", "dip32" if kind == "fwd" else "ndn",
                "--seed", str(seed),
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        self.pid = self.process.pid

    def healthz(self) -> Dict[str, object]:
        url = f"http://127.0.0.1:{self.metrics_port}/healthz"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return json.loads(response.read())

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} "
                    "before it was ready"
                )
            try:
                self.healthz()
                return
            except urllib.error.HTTPError:
                raise
            except (urllib.error.URLError, OSError):
                if time.monotonic() > deadline:
                    self.kill()
                    raise RuntimeError("daemon never answered /healthz")
                time.sleep(0.01)

    def cpu(self) -> float:
        return cpu_seconds(self.pid)

    def kill(self) -> None:
        self.process.kill()
        self.process.wait()

    def stop(self) -> Dict[str, object]:
        """SIGINT, then the final ledger the daemon printed."""
        self.process.send_signal(signal.SIGINT)
        try:
            out, _ = self.process.communicate(timeout=20.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon ignored SIGINT for 20 s")
        if self.process.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.process.returncode}"
            )
        return json.loads(out.splitlines()[-1])


def expected_replies(
    wires: Sequence[bytes], sent: int, seed: int
) -> Dict[bytes, int]:
    """What ``serve-fwd`` must answer: an in-process RouterProcessor on
    the same state decides every distinct wire; the daemon's replies
    must be those decisions, as often as each wire was sent."""
    distinct = sorted(set(wires))
    processor = RouterProcessor(dip32_state_factory(1024, seed))
    reply_of = {
        wire: encode_reply(
            result.decision.value,
            result.ports,
            None if result.packet is None else result.packet.encode(),
        )
        for wire, result in zip(distinct, processor.process_batch(distinct))
    }
    cycles, rest = divmod(sent, len(wires))
    expected: Dict[bytes, int] = {}
    for index, wire in enumerate(wires):
        times = cycles + (1 if index < rest else 0)
        if times:
            reply = reply_of[wire]
            expected[reply] = expected.get(reply, 0) + times
    return expected


def check_outputs(
    kind: str,
    seed: int,
    gen: LoadGenerator,
    ledger: Dict[str, object],
) -> Dict[str, int]:
    """Operations failing each output check (all zero on a good run)."""
    statuses: Dict[str, int] = {}
    undecodable = 0
    for reply, count in gen.replies.items():
        try:
            status = decode_reply(reply)[0]
        except ValueError:
            undecodable += count
            continue
        statuses[status] = statuses.get(status, 0) + count
    refused = sum(statuses.pop(status, 0) for status in REFUSALS)
    decisions = ledger["decisions"]
    checks = {
        "no_reply": gen.lost,
        "undecodable_reply": undecodable,
        "refused": refused,
        # The client's count of each verdict is the daemon's own.
        "ledger_decisions": sum(
            abs(statuses.get(name, 0) - decisions.get(name, 0))
            for name in set(statuses) | set(decisions)
        ),
        "ledger_unaccounted": abs(ledger["unaccounted"]),
        "ledger_offered": abs(ledger["offered"] - gen.sent),
        "leaked_shm_segments": len(leaked_segments()),
    }
    if kind == "fwd":
        expected = expected_replies(gen.wires, gen.sent, seed)
        checks["wrong_verdict"] = sum(
            max(0, count - expected.get(reply, 0))
            for reply, count in gen.replies.items()
        )
        checks["not_forwarded"] = gen.received - statuses.get("forward", 0)
    return checks


def trace_serve_chain(
    tree: SpanTree,
    wires: Sequence[bytes],
    state_factory: Callable,
    laps: int,
) -> Dict[str, float]:
    """The serve layers in process, fed the daemon's wires 64 at a time.

    ``ServeCore.flush`` is timed as a whole.  Its call into the engine
    is timed where it happens, by a span wrapped around the core's own
    ``engine.run`` from here, so that child lies inside its parent and
    can never exceed it; ``encode_reply`` is timed right after, over
    the outcomes that flush just encoded.  ``flush`` self time is
    flush - engine run - reply encode.  Every lap also runs submit +
    flush once without any span: traced / untraced is the tracing
    overhead.
    """
    core = ServeCore(ServeConfig(), state_factory=state_factory)
    groups = batches(wires)
    address = ("127.0.0.1", 0)
    engine_run = core.engine.run
    reports = []
    current = {}  # the lap and flush span the engine is being run for

    def traced_engine_run(packets, now=None):
        with tree.span(
            "engine.engine.run", current["lap"], len(packets),
            parent=current["flush"],
        ):
            report = engine_run(packets, now=now)
        current["outcomes"] = report.outcomes
        reports.append(dataclasses.replace(report, outcomes=()))
        return report

    def chain(lap: Optional[int]) -> float:
        """Submit and flush every batch; seconds spent doing so."""
        clock = time.perf_counter
        encoding = 0.0
        started = clock()
        for group in groups:
            if lap is None:
                for wire in group:
                    core.submit_ex(wire, address)
                core.flush()
                continue
            count = len(group)
            with tree.span("serve.core.submit", lap, count):
                for wire in group:
                    core.submit_ex(wire, address)
            with tree.span("serve.core.flush", lap, count) as flush:
                current.update(lap=lap, flush=flush)
                core.flush()
            with tree.span(
                "serve.core.encode_reply", lap, count, parent=flush
            ) as encode:
                for outcome in current["outcomes"]:
                    encode_reply(
                        outcome.decision.value, outcome.ports, outcome.packet
                    )
            encoding += encode.duration
        return clock() - started - encoding

    chain(None)  # warm: programs compile, the flow cache fills
    plain: List[float] = []
    traced: List[float] = []
    for lap in range(laps):
        plain.append(chain(None))
        core.engine.run = traced_engine_run
        traced.append(chain(lap))
        del core.engine.run  # back to the class's method
    core.close()
    rows = {
        "serve.core.submit_us_per_pkt": tree.us_per_packet(
            "serve.core.submit"
        ),
        "serve.core.flush_us_per_pkt": tree.us_per_packet("serve.core.flush"),
        "serve.core.flush_self_us_per_pkt": tree.self_us_per_packet(
            "serve.core.flush"
        ),
        "serve.core.encode_reply_us_per_pkt": tree.us_per_packet(
            "serve.core.encode_reply"
        ),
        "engine.engine.run_us_per_pkt": tree.us_per_packet(
            "engine.engine.run"
        ),
        "bench.trace_overhead_ratio": median(traced) / median(plain),
    }
    rows.update(engine_report_rows(reports, parallel=False))
    return rows


def run(
    kind: str, seed: int, seconds: float, setups: int,
    tree: Optional[SpanTree],
) -> Dict[str, object]:
    """One run of ``serve-<kind>``; ``tree`` set means the traced run."""
    setup_times = []
    daemon = None
    for _ in range(setups):
        if daemon is not None:
            daemon.stop()
        started = time.perf_counter()
        wires = make_wires(kind, seed)
        daemon = Daemon(kind, seed)
        daemon.wait_ready()
        setup_times.append(time.perf_counter() - started)

    # The traced run spends half its time on the daemon (the daemon
    # rows need one) and half on the in-process layer walk.
    budget = seconds * (0.5 if tree is not None else 1.0)
    gen = LoadGenerator(("127.0.0.1", daemon.port), wires, seed)
    try:
        gen.closed_loop(0.1 * budget, 1, daemon.cpu)  # warm-up
        before = daemon.healthz()
        closed = gen.closed_loop(0.45 * budget, CLOSED_SLICES, daemon.cpu)
        between = daemon.healthz()
        opened = gen.open_loop(0.45 * budget, OPEN_SLICES)
        after = daemon.healthz()
        rss = peak_rss_mib(daemon.pid)
    except BaseException:
        daemon.kill()
        raise
    finally:
        gen.close()
    ledger = daemon.stop()

    checks = check_outputs(kind, seed, gen, ledger)
    cpu_us = median(
        [piece.cpu_seconds / piece.completed * 1e6 for piece in closed]
    )
    # A host stall can swallow a whole short slice: no probes, no vote.
    probed = [piece.latencies for piece in opened if piece.latencies]
    lat_p50 = median([percentile(lats, 0.50) for lats in probed]) * 1e3
    result: Dict[str, object] = {"attempted": gen.sent, "checks": checks}
    if tree is None:
        result["metrics"] = {
            "setup_s": median(setup_times),
            "pkts_per_s": median(
                [piece.completed / piece.seconds for piece in closed]
            ),
            "cpu_us_per_pkt": cpu_us,
            "lat_p98_ms": median(
                [percentile(lats, 0.98) for lats in probed]
            ) * 1e3,
            "peak_rss_mb": rss,
        }
        return result

    def fill(first: Dict[str, object], second: Dict[str, object]) -> float:
        flushes = second["flushes"] - first["flushes"]
        packets = second["processed"] - first["processed"]
        return packets / flushes / ServeConfig().batch_max

    laps = max(1, round(seconds / 4))
    state_factory = state_factory_of(kind, seed)
    rows = trace_serve_chain(tree, wires, state_factory, laps)
    stats = walk_core_layers(
        tree, wires, state_factory, ServeConfig().shards, laps
    )
    rows.update(core_layer_rows(tree, [stats]))
    lateness = [late for piece in opened for late in piece.lateness]
    rows.update(
        {
            # Whatever CPU the daemon burns per packet beyond its core's
            # submit + flush: asyncio callbacks, sendto, executor hop.
            "serve.daemon.overhead_us_per_pkt": cpu_us
            - rows["serve.core.submit_us_per_pkt"]
            - rows["serve.core.flush_us_per_pkt"],
            "serve.daemon.batch_fill_closed": fill(before, between),
            "serve.daemon.batch_fill_open": fill(between, after),
            "serve.daemon.lat_p50_ms": lat_p50,
            "serve.daemon.wait_p50_ms": lat_p50
            - ledger["batch_latency_p50"] * 1e3,
            "serve.core.flush_p99_ms": ledger["batch_latency_p99"] * 1e3,
            "serve.core.shed_frac": ledger["shed"] / ledger["offered"],
            "bench.loadgen.late_p99_ms": percentile(lateness, 0.99) * 1e3,
        }
    )
    result["metrics"] = rows
    return result
