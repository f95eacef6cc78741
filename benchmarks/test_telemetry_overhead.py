"""TELEMETRY: the off-by-default layer must be (nearly) free.

The budget from DESIGN.md 3.8: with ``EngineConfig(telemetry=False)``
(the default), the engine must stay within 5% of the uninstrumented
throughput -- and since the pending-accumulator rework (three list
appends per packet, Counter-folded into the registry once per batch),
the *enabled* path must too.  Three checks enforce it:

- **ledger gate** (``REPRO_CHECK_LEDGER=1``): the disabled-telemetry
  pkts/s measured here must be >= 95% of the committed ``engine`` row
  in ``BENCH_engine.json``.  CI runs ``test_engine_throughput`` first
  in the same job, which refreshes that row on the *same machine*, so
  the comparison is drift-free.  Without the env var the check is
  informational (a laptop's ledger row may come from different
  hardware).
- **enabled-path gate** (always on): the telemetry-enabled engine must
  reach >= 95% of the disabled engine measured interleaved in the same
  run, so the comparison is immune to machine drift.
- **same-run report**: disabled and enabled throughput are recorded in
  the ledger (rows ``engine notelemetry`` / ``engine telemetry``) so
  enablement cost stays visible in-tree.

When ``REPRO_REPORT_DIR`` is set, a ``metrics.prom`` artifact from the
instrumented run is left behind for CI to publish.
"""

import gc
import os
import time
from pathlib import Path

import pytest

from repro.engine import EngineConfig, ForwardingEngine
from repro.engine.workers import ShardWorker
from repro.workloads.reporting import Reporter
from repro.workloads.throughput import (
    dip32_state_factory,
    make_engine_packets,
)

REPORTER = Reporter()

PACKETS = 2000
PASSES = 3
REPEATS = 3
DISABLED_BUDGET = 0.95  # >= 95% of the ledger baseline
ENABLED_BUDGET = 0.95  # enabled >= 95% of disabled, same run

BENCH_JSON = Path(__file__).parent.parent / "BENCH_engine.json"
BENCH_HEADERS = ["mode", "pkts/s", "speedup vs per-packet"]

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def engine_packets():
    return make_engine_packets(packet_count=PACKETS)


def _measure(packets, telemetry):
    """Best pkts/s over REPEATS runs of one warmed engine."""
    engine = ForwardingEngine(
        dip32_state_factory,
        config=EngineConfig(num_shards=4, telemetry=telemetry),
    )
    engine.run(packets)  # warm program/dispatch caches
    best = 0.0
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = engine.run(packets)
        elapsed = time.perf_counter() - start
        assert report.packets_processed == PACKETS
        best = max(best, PACKETS / elapsed)
    return best


def test_disabled_telemetry_within_budget(engine_packets):
    # Interleave the two variants over several passes and keep each
    # one's best (same discipline as benchmarks/test_engine_throughput):
    # machine speed drifts between phases, best-of cancels it.
    best = {"engine notelemetry": 0.0, "engine telemetry": 0.0}
    for _ in range(PASSES):
        best["engine notelemetry"] = max(
            best["engine notelemetry"], _measure(engine_packets, False)
        )
        best["engine telemetry"] = max(
            best["engine telemetry"], _measure(engine_packets, True)
        )

    disabled = best["engine notelemetry"]
    enabled = best["engine telemetry"]
    rows = [
        ["engine notelemetry", f"{disabled:,.0f}", "-"],
        [
            "engine telemetry",
            f"{enabled:,.0f}",
            f"{enabled / disabled:.2f}x vs notelemetry",
        ],
    ]
    REPORTER.table(
        "TELEMETRY: engine throughput, telemetry off vs on",
        ["mode", "pkts/s", "ratio"],
        rows,
    )
    REPORTER.update_ledger(
        str(BENCH_JSON),
        "ENGINE/FLOWCACHE: DIP-32 throughput",
        BENCH_HEADERS,
        rows,
    )

    # Leave a scrapeable artifact from an instrumented run.
    report_dir = os.environ.get("REPRO_REPORT_DIR")
    if report_dir:
        os.makedirs(report_dir, exist_ok=True)
        engine = ForwardingEngine(
            dip32_state_factory,
            config=EngineConfig(num_shards=4, telemetry=True),
        )
        engine.run(engine_packets)
        REPORTER.write_metrics(
            engine.metrics.snapshot(),
            os.path.join(report_dir, "metrics.prom"),
        )

    assert enabled >= ENABLED_BUDGET * disabled, (
        f"telemetry-enabled engine at {enabled:,.0f} pkts/s is below "
        f"{ENABLED_BUDGET:.0%} of the same-run disabled engine "
        f"{disabled:,.0f} pkts/s"
    )

    baseline_cell = Reporter.read_ledger_value(str(BENCH_JSON), "engine", 1)
    if os.environ.get("REPRO_CHECK_LEDGER") and baseline_cell:
        baseline = float(baseline_cell.replace(",", ""))
        assert disabled >= DISABLED_BUDGET * baseline, (
            f"telemetry-disabled engine at {disabled:,.0f} pkts/s is below "
            f"{DISABLED_BUDGET:.0%} of the ledger baseline "
            f"{baseline:,.0f} pkts/s"
        )


def test_disabled_engine_allocates_no_telemetry(engine_packets):
    """The cheap structural half of the budget: the disabled engine
    carries only the shared null objects and records nothing."""
    from repro.telemetry.metrics import NULL_REGISTRY
    from repro.telemetry.tracing import NULL_TRACER

    engine = ForwardingEngine(
        dip32_state_factory, config=EngineConfig(num_shards=4)
    )
    engine.run(engine_packets)
    assert engine.metrics is NULL_REGISTRY
    assert engine.tracer is NULL_TRACER
    assert len(engine.tracer) == 0
    # The workers sit behind the transport seam; find them by the shard
    # state the public accessor hands out.
    states = [engine.shard_state(shard) for shard in range(4)]
    workers = [
        candidate
        for candidate in gc.get_objects()
        if isinstance(candidate, ShardWorker)
        and any(candidate.processor.state is state for state in states)
    ]
    assert len(workers) == 4
    for worker in workers:
        assert worker.tracer is NULL_TRACER
        assert worker.processor.telemetry is None
