"""Every workload and metric the benchmark prints, by name, with its unit.

``BENCHMARK.json`` at the repository root lists the same names; the
smoke test fails when the two drift apart.
"""

from __future__ import annotations

WORKLOADS = ("serve-fwd", "serve-ndn", "engine-fig2", "fabric-golden")

# name -> (unit, which way is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pkts_per_s": ("pkts/s", "higher"),
    "cpu_us_per_pkt": ("us", "lower"),
    "lat_p98_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

FIG2_ROWS = tuple(
    f"{composition}-{size}"
    for composition in ("ipv4", "ipv6", "ndn", "opt", "xia")
    for size in (128, 1500)
)

# A layer that is not on a workload's path reports 0 there: no time is
# spent in code that does not run.
PER_LAYER = {
    "serve.daemon.overhead_us_per_pkt": ("us", "lower"),
    "serve.daemon.batch_fill_closed": ("ratio", "higher"),
    "serve.daemon.batch_fill_open": ("ratio", "higher"),
    "serve.daemon.lat_p50_ms": ("ms", "lower"),
    "serve.daemon.wait_p50_ms": ("ms", "lower"),
    "serve.core.submit_us_per_pkt": ("us", "lower"),
    "serve.core.flush_us_per_pkt": ("us", "lower"),
    "serve.core.flush_self_us_per_pkt": ("us", "lower"),
    "serve.core.encode_reply_us_per_pkt": ("us", "lower"),
    "serve.core.flush_p99_ms": ("ms", "lower"),
    "serve.core.shed_frac": ("ratio", "lower"),
    "engine.engine.run_us_per_pkt": ("us", "lower"),
    "engine.engine.supervisor_us_per_pkt": ("us", "lower"),
    **{
        f"engine.engine.us_per_pkt.{row}": ("us", "lower")
        for row in FIG2_ROWS
    },
    "engine.engine.restarts": ("count", "lower"),
    "engine.engine.retries": ("count", "lower"),
    "engine.engine.dead_letters": ("count", "lower"),
    "engine.dispatch.shards_of_us_per_pkt": ("us", "lower"),
    "engine.rings.high_watermark": ("count", "lower"),
    "engine.rings.dropped": ("count", "lower"),
    "engine.workers.busy_ratio": ("ratio", "higher"),
    "engine.shm.pipe_ratio": ("ratio", "lower"),
    "engine.columnar.us_per_pkt": ("us", "lower"),
    "engine.columnar.vectorized_ratio": ("ratio", "higher"),
    "engine.columnar.kernel_refusals": ("count", "lower"),
    "core.flowcache.us_per_pkt": ("us", "lower"),
    "core.flowcache.hit_ratio": ("ratio", "higher"),
    "core.flowcache.bypass_ratio": ("ratio", "lower"),
    "core.processor.process_batch_us_per_pkt": ("us", "lower"),
    "core.processor.process_us_per_pkt": ("us", "lower"),
    "core.packet.decode_us_per_pkt": ("us", "lower"),
    "core.packet.encode_us_per_pkt": ("us", "lower"),
    "crypto.mac.us_per_tag": ("us", "lower"),
    "dataplane.dip_pipeline.us_per_pkt": ("us", "lower"),
    "fabric.runner.overhead_ratio": ("ratio", "lower"),
    "fabric.runner.rounds_per_kpkt": ("count", "lower"),
    "fabric.runner.msgs_per_pkt": ("count", "lower"),
    "fabric.runner.null_msg_ratio": ("ratio", "lower"),
    "fabric.runner.proc2_ratio": ("ratio", "lower"),
    "netsim.engine.events_per_s": ("1/s", "higher"),
    "bench.loadgen.late_p99_ms": ("ms", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
}
