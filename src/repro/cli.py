"""Command-line interface: packet dissection and the paper's experiments.

Usage::

    python -m repro decode 00010240...        # dissect a DIP packet
    python -m repro paper [ID ...] [--out DIR]  # Figure 2, Table 2, ablations
    python -m repro keys                      # known operation keys
    python -m repro engine --metrics-out m.prom --trace-out t.jsonl
    python -m repro stats [--json]            # telemetry snapshot
    python -m repro fabric --processes 2 --compare   # co-simulation spine

``decode`` accepts hex (with or without spaces); it prints the basic
header, every FN triple, a locations hexdump, and -- when the FN keys
identify an embedded protocol header (OPT, EPIC, XIA) -- a decoded view
of that too.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.fn import OperationKey
from repro.core.packet import DipPacket
from repro.errors import ReproError
from repro.util.bytesutil import hexdump


def _key_name(key: int) -> str:
    try:
        return OperationKey(key).name
    except ValueError:
        return f"key-{key}"


def _decode_embedded(packet: DipPacket, out) -> None:
    keys = {fn.key for fn in packet.header.fns}
    locations = packet.header.locations
    try:
        if OperationKey.MAC in keys:
            from repro.protocols.opt.header import OptHeader

            base = min(
                fn.field_loc
                for fn in packet.header.fns
                if fn.key == OperationKey.MAC
            )
            header = OptHeader.decode(locations[base // 8 :])
            out.write(
                f"  embedded OPT header: session "
                f"{header.session_id.hex()[:16]}.., ts {header.timestamp}, "
                f"{header.hop_count} hop(s)\n"
            )
        if OperationKey.EPIC in keys:
            from repro.protocols.epic.header import EpicHeader

            base = min(
                fn.field_loc
                for fn in packet.header.fns
                if fn.key == OperationKey.EPIC
            )
            header = EpicHeader.decode(locations[base // 8 :])
            out.write(
                f"  embedded EPIC header: session "
                f"{header.session_id.hex()[:16]}.., ctr {header.counter}, "
                f"{header.hop_count} hop(s)\n"
            )
        if OperationKey.DAG in keys:
            from repro.protocols.xia.router import XiaHeader

            header = XiaHeader.decode(locations)
            out.write(
                f"  embedded XIA header: {len(header.dag.nodes)} DAG "
                f"node(s), intent {header.dag.intent}, "
                f"pointer {header.last_visited}\n"
            )
    except ReproError as exc:
        out.write(f"  (embedded header did not decode: {exc})\n")


def cmd_decode(args, out) -> int:
    text = "".join(args.hex).replace(" ", "").replace(":", "")
    try:
        raw = bytes.fromhex(text)
    except ValueError:
        out.write("error: input is not valid hex\n")
        return 2
    try:
        packet = DipPacket.decode(raw)
    except ReproError as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 1
    header = packet.header
    out.write(
        f"DIP packet: {packet.size} bytes total, "
        f"{header.header_length}-byte header, "
        f"{len(packet.payload)}-byte payload\n"
    )
    out.write(
        f"  basic header: next-header {header.next_header:#06x}, "
        f"FN num {header.fn_num}, hop limit {header.hop_limit}, "
        f"parallel {'yes' if header.parallel else 'no'}, "
        f"locations {header.loc_len} B\n"
    )
    for index, fn in enumerate(header.fns):
        role = "host" if fn.tag else "router"
        out.write(
            f"  FN[{index}]: {_key_name(fn.key)} ({role}) "
            f"loc {fn.field_loc} len {fn.field_len}\n"
        )
    if header.locations:
        out.write("  FN locations:\n")
        for line in hexdump(header.locations).splitlines():
            out.write(f"    {line}\n")
    _decode_embedded(packet, out)
    return 0


def cmd_lint(args, out) -> int:
    """Lint a packet's FN program; exit 1 on errors, 0 otherwise."""
    from repro.core.composer import Severity, lint_program

    text = "".join(args.hex).replace(" ", "").replace(":", "")
    try:
        packet = DipPacket.decode(bytes.fromhex(text))
    except (ValueError, ReproError) as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 2
    diagnostics = lint_program(packet.header)
    if not diagnostics:
        out.write("clean: no findings\n")
        return 0
    for diagnostic in diagnostics:
        out.write(f"{diagnostic}\n")
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def cmd_paper(args, out) -> int:
    """``repro paper``: every paper table as a self-checking experiment."""
    from repro.workloads.paper import EXPERIMENTS, reproduce

    unknown = sorted(set(args.ids) - set(EXPERIMENTS))
    if unknown:
        out.write(
            f"paper: unknown experiments: {unknown} "
            f"(known: {list(EXPERIMENTS)})\n"
        )
        return 2
    ids = args.ids or list(EXPERIMENTS)
    return 0 if reproduce(ids, out, out_dir=args.out) else 1


def _build_engine(args, out, telemetry: bool):
    """Shared engine construction for ``engine`` and ``stats``.

    Returns ``(engine, packets)`` or ``None`` after printing an error.
    """
    from repro.engine import EngineConfig, ForwardingEngine
    from repro.resilience import FaultPlan
    from repro.workloads.throughput import (
        dip32_state_factory,
        make_engine_packets,
        make_zipf_engine_packets,
    )

    fault_plan = None
    if getattr(args, "fault_plan", None):
        try:
            with open(args.fault_plan, "r", encoding="utf-8") as handle:
                fault_plan = FaultPlan.from_json(handle.read())
        except OSError as exc:
            out.write(f"error: cannot read fault plan: {exc}\n")
            return None
        except ReproError as exc:
            out.write(f"error: bad fault plan: {exc}\n")
            return None
    try:
        config = EngineConfig(
            num_shards=args.shards,
            backend=args.backend,
            batch_size=args.batch_size,
            backpressure=args.backpressure,
            flow_cache=args.flow_cache,
            flow_cache_capacity=args.flow_cache_capacity,
            columnar=getattr(args, "columnar", False),
            shm=getattr(args, "shm", True),
            telemetry=telemetry,
            degrade=getattr(args, "degrade", None),
            fault_plan=fault_plan,
            max_retries=getattr(args, "max_retries", 2),
            worker_timeout=getattr(args, "worker_timeout", 30.0),
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return None
    if args.zipf:
        packets = make_zipf_engine_packets(
            packet_size=args.packet_size, packet_count=args.packets
        )
    else:
        packets = make_engine_packets(
            packet_size=args.packet_size, packet_count=args.packets
        )
    return ForwardingEngine(dip32_state_factory, config=config), packets


def cmd_engine(args, out) -> int:
    """Run the sharded forwarding engine over a DIP-32 batch."""
    from repro.telemetry.export import write_prometheus, write_trace_jsonl
    from repro.workloads.reporting import emit_payload, format_table

    # Either export flag implies telemetry; the run itself is otherwise
    # identical (tests/engine/test_telemetry_equivalence.py).
    telemetry = bool(args.metrics_out or args.trace_out)
    built = _build_engine(args, out, telemetry)
    if built is None:
        return 2
    engine, packets = built
    report = engine.run(packets)

    def render() -> None:
        out.write(
            f"engine: {report.packets_processed}/{report.packets_offered} "
            f"packets in {report.wall_seconds:.3f}s = "
            f"{report.pkts_per_second:,.0f} pkts/s "
            f"({args.backend}, {args.shards} shard(s))\n"
        )
        decisions = ", ".join(
            f"{name} {count}"
            for name, count in sorted(report.decisions.items())
        )
        out.write(f"  decisions: {decisions or 'none'}\n")
        out.write(
            f"  batch latency: p50 {report.batch_latency_p50 * 1e6:.0f}us, "
            f"p99 {report.batch_latency_p99 * 1e6:.0f}us\n"
        )
        if (
            report.worker_restarts
            or report.retries
            or report.degraded
            or report.faults_injected
            or report.dead_letter_total
        ):
            out.write(
                f"  resilience: {report.worker_restarts} restart(s), "
                f"{report.retries} retried batch(es), "
                f"{report.degraded} degraded, "
                f"{report.faults_injected} fault(s) injected, "
                f"{report.dead_letter_total} dead-lettered\n"
            )
        rows = [
            [
                shard.shard_id,
                shard.packets,
                shard.batches,
                f"{shard.utilization * 100:.1f}%",
                ring.high_watermark,
                ring.dropped,
            ]
            for shard, ring in zip(report.shards, report.rings)
        ]
        table = format_table(
            ["shard", "packets", "batches", "util", "ring hwm", "drops"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        if report.flow_cache is not None:
            stats = report.flow_cache
            cache_rows = [
                ["hits", stats.hits],
                ["misses", stats.misses],
                ["bypasses", stats.bypasses],
                ["evictions", stats.evictions],
                ["invalidations", stats.invalidations],
                ["size", stats.size],
                ["capacity", stats.capacity],
            ]
            out.write("  flow cache:\n")
            cache_table = format_table(["counter", "value"], cache_rows)
            for line in cache_table.splitlines():
                out.write(f"    {line}\n")

    emit_payload(args.json, report.to_dict, render, out=out)
    if args.metrics_out:
        path = write_prometheus(engine.metrics.snapshot(), args.metrics_out)
        out.write(f"  metrics written to {path}\n")
    if args.trace_out:
        path = write_trace_jsonl(engine.tracer.spans, args.trace_out)
        out.write(f"  trace written to {path} ({len(engine.tracer)} spans)\n")
    return 0


def cmd_stats(args, out) -> int:
    """Run the engine with telemetry on and print the unified snapshot."""
    from repro.telemetry.export import snapshot_rows
    from repro.workloads.reporting import emit_payload, format_table

    built = _build_engine(args, out, telemetry=True)
    if built is None:
        return 2
    engine, packets = built
    engine.run(packets)
    # The live registry already folds in the run report (engine
    # counters, batch-latency histogram, processor and flow-cache
    # metrics), so its snapshot is the complete view.
    snapshot = engine.metrics.snapshot()

    def payload():
        from repro.telemetry.export import snapshot_to_json

        return snapshot_to_json(snapshot)

    def render() -> None:
        out.write("\n== engine telemetry ==\n")
        rows = snapshot_rows(snapshot)
        out.write(format_table(["metric", "type", "value"], rows) + "\n")

    emit_payload(args.json, payload, render, out=out)
    return 0


def cmd_conformance(args, out) -> int:
    """Differential conformance: corpus replay and/or seeded fuzzing.

    Exit code 0 means every executor agreed with the reference
    interpreter on every compared packet; 1 means divergences (the
    report, plus shrunk repros, goes to ``--json``).
    """
    from pathlib import Path

    from repro.conformance import (
        DivergenceReport,
        load_corpus,
        replay_corpus,
        run_fuzz,
        save_corpus,
    )
    from repro.conformance.corpus import (
        REGRESSION_GROUP,
        build_golden_corpus,
    )
    from repro.conformance.executors import executors_by_name
    from repro.dataplane.costs import CycleCostModel

    cost_model = None if args.no_cost_model else CycleCostModel()
    try:
        executors = (
            executors_by_name(args.executors.split(","))
            if args.executors
            else None
        )
    except ValueError as exc:
        out.write(f"conformance: {exc}\n")
        return 2
    scenarios = args.scenarios.split(",") if args.scenarios else None

    if args.record:
        # Regenerate the golden groups; regression vectors (appended
        # when fuzzer finds are fixed) are preserved, never rebuilt.
        vectors = build_golden_corpus(seed=args.seed)
        if Path(args.record).is_dir():
            vectors.extend(
                v
                for v in load_corpus(args.record)
                if v.group == REGRESSION_GROUP
            )
        paths = save_corpus(vectors, args.record)
        out.write(
            f"conformance: recorded {len(vectors)} vectors into "
            f"{len(paths)} files under {args.record}\n"
        )

    report = DivergenceReport()
    corpus_dir = args.corpus or args.record
    if corpus_dir is None and args.fuzz == 0:
        default_dir = Path("tests/conformance/corpus")
        if default_dir.is_dir():
            corpus_dir = str(default_dir)
        else:
            out.write(
                "conformance: nothing to do (no --corpus, no --fuzz, and "
                "no tests/conformance/corpus here)\n"
            )
            return 2
    if corpus_dir is not None:
        vectors = load_corpus(corpus_dir)
        if not vectors:
            out.write(f"conformance: no vectors under {corpus_dir}\n")
            return 2
        replay = replay_corpus(vectors, executors, cost_model)
        out.write(f"corpus replay ({len(vectors)} vectors): ")
        out.write(replay.summary() + "\n")
        report.merge(replay)
    if args.fuzz > 0:
        fuzz = run_fuzz(
            args.fuzz,
            seed=args.seed,
            scenarios=scenarios,
            executors=args.executors.split(",") if args.executors else None,
            cost_model=cost_model,
            shrink=not args.no_shrink,
            max_seconds=args.max_seconds,
        )
        out.write(f"fuzz (seed {args.seed}): " + fuzz.summary() + "\n")
        report.merge(fuzz)

    for divergence in report.divergences[:20]:
        out.write(
            f"  DIVERGENCE {divergence.scenario}/{divergence.executor} "
            f"packet {divergence.index} [{divergence.aspect}]"
            + (f" vector {divergence.vector}" if divergence.vector else "")
            + f"\n    expected: {divergence.expected}"
            f"\n    got:      {divergence.got}\n"
        )
    if len(report.divergences) > 20:
        out.write(
            f"  ... {len(report.divergences) - 20} more divergences\n"
        )
    for repro in report.repros:
        out.write(
            f"  shrunk repro [{repro['scenario']}] "
            f"{','.join(repro['executors'])}: "
            f"{' '.join(repro['wires'])}\n"
        )
    from repro.workloads.reporting import emit_payload

    written = emit_payload(args.json, report.to_dict, None, out=out)
    if written:
        out.write(f"  report written to {written}\n")
    return 0 if report.ok else 1


def cmd_serve(args, out) -> int:
    """``repro serve``: the long-lived serving daemon (DESIGN.md 3.11)."""
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import run_daemon

    config = ServeConfig(
        host=args.host,
        port=args.port,
        metrics_port=args.metrics_port,
        shards=args.shards,
        backend=args.backend,
        batch_max=args.batch_max,
        batch_timeout_ms=args.batch_timeout_ms,
        max_inflight=args.max_inflight,
        cs_capacity=args.cs_capacity,
        cs_ttl=args.cs_ttl if args.cs_ttl > 0 else None,
        pit_capacity=args.pit_capacity if args.pit_capacity > 0 else None,
        pit_eviction=args.pit_eviction,
        flow_cache=args.flow_cache,
        content_count=args.content_count,
        seed=args.seed,
        mitigation=args.mitigation,
        max_seconds=args.max_seconds,
        max_packets=args.max_packets,
    )
    summary = run_daemon(config, json_out=args.json, out=out)
    return 0 if summary["unaccounted"] == 0 else 1


def cmd_topology(args, out) -> int:
    """``repro topology``: internet-scale multi-AS graphs (DESIGN.md 3.13).

    Default mode generates and materializes the graph (nodes, links,
    tunnels, routes, host bootstrap) and prints a summary;
    ``--describe`` prints per-AS detail from the pure plan.  The
    adoption sweep over the acceptance-scale graph is ``repro paper
    ADOPT``.
    """
    from repro.netsim.internet import InternetGenerator, NetworkSpec
    from repro.workloads.reporting import emit_payload, format_table

    try:
        spec = NetworkSpec(
            seed=args.seed,
            transit=args.transit,
            regional=args.regional,
            stub=args.stub,
            ix_count=args.ix,
            adoption=args.adoption,
            hosts_per_stub=args.hosts_per_stub,
            multihome=args.multihome,
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
    generator = InternetGenerator(spec)

    if args.describe:
        plan = generator.plan()

        def describe_payload():
            return {
                "summary": plan.summary(),
                "ases": plan.describe_rows(),
                "ixps": [
                    {"ix_id": ix.ix_id, "members": list(ix.members)}
                    for ix in plan.ixps
                ],
                "tunnels": [
                    {"spoke": t.spoke, "hub": t.hub, "via": list(t.via)}
                    for t in plan.tunnels
                ],
            }

        def render_describe() -> None:
            rows = [
                [
                    row["as_id"], row["role"], row["mode"], row["profile"],
                    row["degree"], row["hosts"], row["prefix"],
                ]
                for row in plan.describe_rows()
            ]
            table = format_table(
                ["AS", "role", "mode", "profile", "degree", "hosts",
                 "prefix"],
                rows,
            )
            out.write(table + "\n")
            for ix in plan.ixps:
                out.write(
                    f"{ix.name}: {len(ix.members)} members "
                    f"({', '.join(f'AS{m}' for m in ix.members[:8])}"
                    f"{', ...' if len(ix.members) > 8 else ''})\n"
                )
            for tunnel in plan.tunnels:
                out.write(
                    f"tunnel AS{tunnel.spoke} -> AS{tunnel.hub} via "
                    f"{len(tunnel.via)} legacy AS(es)\n"
                )
            out.write(f"fingerprint: {plan.fingerprint()}\n")

        emit_payload(args.json, describe_payload, render_describe, out=out)
        return 0

    internet = generator.build()
    bootstrapped = internet.bootstrap_hosts()
    summary = internet.summary()
    summary["hosts_bootstrapped"] = bootstrapped

    def render_generate() -> None:
        rows = [[key, summary[key]] for key in summary]
        out.write(format_table(["property", "value"], rows) + "\n")

    emit_payload(args.json, lambda: summary, render_generate, out=out)
    return 0


def cmd_fabric(args, out) -> int:
    """``repro fabric``: virtual-time co-simulation spine (DESIGN.md 3.15).

    Runs the golden multi-AS scenario -- netsim stub islands around an
    engine-backed and a PISA-backed transit -- as fabric components,
    optionally across processes, and (with ``--compare``) checks the
    per-packet delivery records against the monolithic netsim twin.
    Exit code 1 means the twins diverged; the ``--json PATH`` artifact
    then carries the mismatching records for diagnosis.
    """
    import time

    from repro.fabric import (
        GoldenSpec,
        golden_fabric,
        golden_netsim,
        golden_traffic,
        write_pcap,
    )
    from repro.telemetry.metrics import MetricsRegistry
    from repro.workloads.reporting import emit_payload, format_table

    try:
        spec = GoldenSpec(
            seed=args.seed,
            ases=args.ases,
            hosts_per_as=args.hosts_per_as,
            packets=args.packets,
            spacing=args.spacing,
            latency=args.latency,
            intra_latency=args.intra_latency,
            cycle_time=args.cycle_time,
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2

    if args.pcap_out:
        count = write_pcap(
            args.pcap_out,
            (
                (send.time, send.packet().encode())
                for send in golden_traffic(spec)
            ),
        )
        out.write(f"traffic written to {args.pcap_out} ({count} packets)\n")

    registry = MetricsRegistry()
    start = time.perf_counter()
    try:
        run = golden_fabric(
            spec,
            processes=args.processes,
            registry=registry,
            scheduler_seed=args.scheduler_seed,
        )
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2
    report = run.run()
    elapsed = time.perf_counter() - start

    payload = report.to_dict()
    payload["spec"] = {
        "seed": spec.seed,
        "ases": spec.ases,
        "hosts_per_as": spec.hosts_per_as,
        "packets": spec.packets,
        "spacing": spec.spacing,
        "latency": spec.latency,
        "intra_latency": spec.intra_latency,
        "cycle_time": spec.cycle_time,
    }
    payload["wall_seconds"] = elapsed

    identical = None
    if args.compare:
        twin = golden_netsim(spec)
        identical = report.records == twin["records"]
        compare = {
            "identical": identical,
            "fabric_fingerprint": report.fingerprint,
            "twin_fingerprint": twin["fingerprint"],
        }
        if not identical:
            mismatches = [
                {"index": i, "fabric": list(ours), "twin": list(theirs)}
                for i, (ours, theirs) in enumerate(
                    zip(report.records, twin["records"])
                )
                if ours != theirs
            ]
            extra = len(report.records) - len(twin["records"])
            compare["record_count_delta"] = extra
            compare["mismatches"] = mismatches[:50]
            compare["mismatch_total"] = len(mismatches)
        payload["compare"] = compare

    def render() -> None:
        out.write(
            f"fabric: {len(report.records)}/{spec.packets} packets "
            f"delivered across {spec.ases} ASes in {elapsed:.2f}s "
            f"({report.processes} process(es), {report.rounds} rounds)\n"
        )
        rows = [
            [
                name,
                f"{report.clocks[name]:.4f}",
                int(detail["counters"].get("delivered", 0)),
                int(detail["counters"].get("forwarded", 0)),
                int(detail["counters"].get("tx_errors", 0)),
            ]
            for name, detail in sorted(report.components.items())
        ]
        table = format_table(
            ["component", "clock", "delivered", "forwarded", "tx err"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        out.write(
            f"  fingerprint {report.fingerprint[:16]}.., "
            f"clock skew {report.clock_skew:.4f}s\n"
        )
        if identical is not None:
            verdict = "IDENTICAL" if identical else "DIVERGED"
            out.write(f"  vs in-process netsim twin: {verdict}\n")

    written = emit_payload(args.json, lambda: payload, render, out=out)
    if written:
        out.write(f"  report written to {written}\n")
    return 1 if identical is False else 0


def _print_keys(out) -> int:
    from repro.core.registry import default_registry

    registry = default_registry()
    for key in sorted(registry.supported_keys()):
        operation = registry.get(key)
        out.write(f"  {key:>3}  {operation.name}\n")
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the exit code."""
    out = out if out is not None else sys.stdout
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIP (HotNets '22) reproduction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    decode = sub.add_parser("decode", help="dissect a DIP packet from hex")
    decode.add_argument("hex", nargs="+", help="packet bytes in hex")
    lint = sub.add_parser("lint", help="lint a DIP packet's FN composition")
    lint.add_argument("hex", nargs="+", help="packet bytes in hex")
    paper = sub.add_parser(
        "paper",
        help="run the paper's experiments and check their shapes "
        "(exit 1 if any FAILS)",
    )
    paper.add_argument(
        "ids", nargs="*", metavar="ID", help="experiment ids (default: all)"
    )
    paper.add_argument(
        "--out",
        metavar="DIR",
        help="write DIR/<ID>.txt per table and DIR/paper.json",
    )
    sub.add_parser("keys", help="list the installed operation keys")
    def add_engine_args(p) -> None:
        p.add_argument("--packets", type=int, default=2000)
        p.add_argument("--packet-size", type=int, default=128)
        p.add_argument("--shards", type=int, default=4)
        p.add_argument(
            "--backend", choices=["serial", "process"], default="serial"
        )
        p.add_argument("--batch-size", type=int, default=64)
        p.add_argument(
            "--backpressure", choices=["block", "drop-tail"], default="block"
        )
        p.add_argument(
            "--flow-cache",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="put a flow-level decision cache in front of every shard",
        )
        p.add_argument("--flow-cache-capacity", type=int, default=65536)
        p.add_argument(
            "--columnar",
            action=argparse.BooleanOptionalAction,
            default=False,
            help="run shard workers through the columnar batch "
            "specializer (numpy kernels; falls back to the scalar "
            "path when unavailable)",
        )
        p.add_argument(
            "--shm",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="use shared-memory rings for process-backend shard "
            "IPC (falls back to pipe payloads when unavailable)",
        )
        p.add_argument(
            "--zipf",
            action="store_true",
            help="Zipf-skewed flow popularity instead of uniform flows",
        )
        p.add_argument(
            "--fault-plan",
            metavar="PATH",
            help="JSON FaultPlan of scripted faults to inject",
        )
        p.add_argument(
            "--degrade",
            choices=["drop", "pass-to-host", "best-effort-ip"],
            default=None,
            help="graceful-degradation policy for limit/state/unsupported "
            "failures (default: surface them as error outcomes)",
        )
        p.add_argument(
            "--max-retries",
            type=int,
            default=2,
            help="batch retries after a worker death before dead-lettering",
        )
        p.add_argument(
            "--worker-timeout",
            type=float,
            default=30.0,
            help="seconds without a reply before a worker is declared dead",
        )

    engine = sub.add_parser(
        "engine", help="run the sharded forwarding engine on DIP-32"
    )
    add_engine_args(engine)
    engine.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a Prometheus text-format dump (enables telemetry)",
    )
    engine.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write stage spans as JSONL (enables telemetry)",
    )
    engine.add_argument(
        "--json",
        action="store_true",
        help="print the engine report as JSON instead of text",
    )
    stats = sub.add_parser(
        "stats",
        help="run the engine with telemetry on; print the metrics snapshot",
    )
    add_engine_args(stats)
    stats.add_argument(
        "--json",
        action="store_true",
        help="print the snapshot as JSON instead of a table",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived asyncio serving daemon "
        "(UDP ingress + /metrics /healthz /reconfig control plane)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9310)
    serve.add_argument("--metrics-port", type=int, default=9311)
    serve.add_argument("--shards", type=int, default=2)
    serve.add_argument(
        "--backend", choices=["serial", "process"], default="serial"
    )
    serve.add_argument(
        "--batch-max",
        type=int,
        default=64,
        help="size-based flush trigger (packets per engine batch)",
    )
    serve.add_argument(
        "--batch-timeout-ms",
        type=float,
        default=5.0,
        help="time-based flush trigger after the first pending packet",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=4096,
        help="admission bound; arrivals past it are shed with accounting",
    )
    serve.add_argument(
        "--cs-capacity",
        type=int,
        default=256,
        help="content-store entries per shard (0 disables caching)",
    )
    serve.add_argument(
        "--cs-ttl",
        type=float,
        default=30.0,
        help="content-store entry lifetime in seconds (0 = no TTL)",
    )
    serve.add_argument(
        "--pit-capacity",
        type=int,
        default=2048,
        help="PIT entries per shard (0 = unbounded)",
    )
    serve.add_argument(
        "--pit-eviction", choices=["lru", "fifo"], default="lru"
    )
    serve.add_argument(
        "--flow-cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="flow-level decision cache in front of every shard",
    )
    serve.add_argument("--content-count", type=int, default=512)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument(
        "--mitigation",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="attack-mitigation gate in front of the ingress queue "
        "(token-bucket rate limiting, F_pass sampling, circuit breaker)",
    )
    serve.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="stop after this many seconds (default: run until signalled)",
    )
    serve.add_argument(
        "--max-packets",
        type=int,
        default=None,
        help="stop after receiving this many datagrams",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        help="print the final conservation ledger as JSON",
    )

    topology = sub.add_parser(
        "topology",
        help="generate internet-scale multi-AS graphs "
        "(generate / --describe)",
    )
    topology.add_argument("--seed", type=int, default=0)
    topology.add_argument(
        "--transit", type=int, default=4, help="tier-1 transit ASes"
    )
    topology.add_argument(
        "--regional", type=int, default=24, help="mid-tier provider ASes"
    )
    topology.add_argument(
        "--stub", type=int, default=180, help="edge ASes with hosts"
    )
    topology.add_argument(
        "--ix", type=int, default=3, help="internet exchange points"
    )
    topology.add_argument(
        "--adoption",
        type=float,
        default=0.5,
        help="DIP adoption fraction",
    )
    topology.add_argument("--hosts-per-stub", type=int, default=2)
    topology.add_argument(
        "--multihome", type=int, default=2, help="providers per stub AS"
    )
    topology.add_argument(
        "--describe",
        action="store_true",
        help="print per-AS detail, IXPs and planned tunnels",
    )
    topology.add_argument(
        "--json",
        action="store_true",
        help="print the summary/detail payload as JSON",
    )

    fabric = sub.add_parser(
        "fabric",
        help="run the golden multi-AS scenario over the virtual-time "
        "co-simulation fabric; --compare checks it against the "
        "monolithic netsim twin",
    )
    fabric.add_argument("--seed", type=int, default=0)
    fabric.add_argument("--ases", type=int, default=10)
    fabric.add_argument("--hosts-per-as", type=int, default=2)
    fabric.add_argument("--packets", type=int, default=1000)
    fabric.add_argument(
        "--processes",
        type=int,
        default=1,
        help="worker processes for component placement (1 = in-process)",
    )
    fabric.add_argument(
        "--spacing", type=float, default=1e-4,
        help="virtual seconds between injected packets",
    )
    fabric.add_argument(
        "--latency", type=float, default=5e-3,
        help="inter-component channel latency (the lookahead)",
    )
    fabric.add_argument(
        "--intra-latency", type=float, default=1e-3,
        help="link delay inside each stub island",
    )
    fabric.add_argument(
        "--cycle-time", type=float, default=1e-9,
        help="seconds per PISA pipeline cycle (service latency)",
    )
    fabric.add_argument(
        "--scheduler-seed",
        type=int,
        default=None,
        help="shuffle component stepping order with this seed "
        "(results must not change; in-process only: exits 2 with "
        "--processes > 1)",
    )
    fabric.add_argument(
        "--compare",
        action="store_true",
        help="also run the monolithic netsim twin; exit 1 on divergence",
    )
    fabric.add_argument(
        "--pcap-out",
        metavar="PATH",
        help="write the generated traffic schedule as a pcap",
    )
    fabric.add_argument(
        "--json",
        nargs="?",
        const=True,
        metavar="PATH",
        help="print the run report as JSON (or write it to PATH)",
    )

    conformance = sub.add_parser(
        "conformance",
        help="differential conformance: reference interpreter vs every "
        "optimized executor (corpus replay + seeded fuzz)",
    )
    conformance.add_argument(
        "--fuzz",
        type=int,
        default=0,
        metavar="N",
        help="fuzz N packets across the scenario rotation (0 = off)",
    )
    conformance.add_argument(
        "--seed", type=int, default=0, help="fuzz/corpus seed"
    )
    conformance.add_argument(
        "--corpus",
        metavar="DIR",
        help="replay every vector in this corpus directory "
        "(default: tests/conformance/corpus when present and not fuzzing)",
    )
    conformance.add_argument(
        "--record",
        metavar="DIR",
        help="regenerate the golden corpus groups into DIR "
        "(regression vectors are preserved), then replay",
    )
    conformance.add_argument(
        "--json",
        metavar="PATH",
        help="write the structured DivergenceReport to PATH",
    )
    conformance.add_argument(
        "--scenarios",
        metavar="A,B",
        help="comma-separated scenario subset (default: all)",
    )
    conformance.add_argument(
        "--executors",
        metavar="A,B",
        help="comma-separated cell names, any of the full product "
        "(e.g. engine-process/packets; default: the tier-1 matrix, "
        "repro.conformance.DEFAULT_EXECUTORS)",
    )
    conformance.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="fuzz time budget; stops starting new cases past it",
    )
    conformance.add_argument(
        "--no-cost-model",
        action="store_true",
        help="skip the cycle model (disables cycle-count comparisons)",
    )
    conformance.add_argument(
        "--no-shrink",
        action="store_true",
        help="report diverging cases without minimizing them",
    )

    args = parser.parse_args(argv)
    if args.command == "decode":
        return cmd_decode(args, out)
    if args.command == "lint":
        return cmd_lint(args, out)
    if args.command == "paper":
        return cmd_paper(args, out)
    if args.command == "keys":
        return _print_keys(out)
    if args.command == "engine":
        return cmd_engine(args, out)
    if args.command == "stats":
        return cmd_stats(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "topology":
        return cmd_topology(args, out)
    if args.command == "fabric":
        return cmd_fabric(args, out)
    if args.command == "conformance":
        return cmd_conformance(args, out)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
